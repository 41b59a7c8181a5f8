//! Access-permission sets for page mappings.
//!
//! Permissions appear in three places in Paradice: guest page-table entries,
//! EPT entries, and IOMMU entries. The paper's device-data-isolation design
//! depends on one x86 quirk that we model faithfully: EPTs *cannot express
//! write-only mappings* — removing read permission necessarily removes write
//! permission too, so the driver is left with no access at all (paper
//! §5.3(iv)); the hypervisor, not the driver, writes protected pages.
//! [`Access::is_ept_expressible`] captures that rule; [`crate::Ept::map`]
//! enforces it.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign, Sub};

/// A set of access rights: any combination of read, write and execute.
///
/// A hand-rolled bitset (rather than an enum) because callers routinely
/// combine rights: `Access::READ | Access::WRITE`.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Access(u8);

impl Access {
    /// The empty set: no access at all.
    pub const NONE: Access = Access(0);
    /// Read permission.
    pub const READ: Access = Access(1);
    /// Write permission.
    pub const WRITE: Access = Access(2);
    /// Execute permission.
    pub const EXEC: Access = Access(4);
    /// Read + write, the common data-page permission.
    pub const RW: Access = Access(1 | 2);
    /// Read + write + execute.
    pub const RWX: Access = Access(1 | 2 | 4);

    /// Builds a set from its raw bit representation (low three bits used).
    pub const fn from_bits(bits: u8) -> Access {
        Access(bits & 0b111)
    }

    /// Raw bit representation.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Returns `true` if every right in `other` is present in `self`.
    pub const fn contains(self, other: Access) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns `true` if the set is empty.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if the set grants read.
    pub const fn readable(self) -> bool {
        self.contains(Access::READ)
    }

    /// Returns `true` if the set grants write.
    pub const fn writable(self) -> bool {
        self.contains(Access::WRITE)
    }

    /// Returns `true` if the set grants execute.
    pub const fn executable(self) -> bool {
        self.contains(Access::EXEC)
    }

    /// Whether this permission set can be encoded in an x86 EPT entry.
    ///
    /// x86 EPTs do not support write-only (or write+execute-without-read)
    /// encodings: writable implies readable. Paradice's data-isolation code
    /// had to strip *both* read and write from protected regions (paper
    /// §5.3(iv)).
    pub const fn is_ept_expressible(self) -> bool {
        !self.writable() || self.readable()
    }
}

impl BitOr for Access {
    type Output = Access;

    fn bitor(self, rhs: Access) -> Access {
        Access(self.0 | rhs.0)
    }
}

impl BitOrAssign for Access {
    fn bitor_assign(&mut self, rhs: Access) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for Access {
    type Output = Access;

    fn bitand(self, rhs: Access) -> Access {
        Access(self.0 & rhs.0)
    }
}

impl Sub for Access {
    type Output = Access;

    /// Set difference: the rights in `self` that are not in `rhs`.
    fn sub(self, rhs: Access) -> Access {
        Access(self.0 & !rhs.0)
    }
}

impl fmt::Debug for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Access({self})")
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("---");
        }
        write!(
            f,
            "{}{}{}",
            if self.readable() { 'r' } else { '-' },
            if self.writable() { 'w' } else { '-' },
            if self.executable() { 'x' } else { '-' },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combination_and_containment() {
        let rw = Access::READ | Access::WRITE;
        assert_eq!(rw, Access::RW);
        assert!(rw.contains(Access::READ));
        assert!(rw.contains(Access::WRITE));
        assert!(!rw.contains(Access::EXEC));
        assert!(rw.contains(Access::NONE));
    }

    #[test]
    fn difference() {
        assert_eq!(Access::RWX - Access::WRITE, Access::READ | Access::EXEC);
        assert_eq!(Access::READ - Access::READ, Access::NONE);
    }

    #[test]
    fn ept_expressibility_models_x86() {
        assert!(Access::NONE.is_ept_expressible());
        assert!(Access::READ.is_ept_expressible());
        assert!(Access::RW.is_ept_expressible());
        assert!(Access::RWX.is_ept_expressible());
        // Write-only and write+exec are the x86-impossible encodings.
        assert!(!Access::WRITE.is_ept_expressible());
        assert!(!(Access::WRITE | Access::EXEC).is_ept_expressible());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Access::NONE.to_string(), "---");
        assert_eq!(Access::RW.to_string(), "rw-");
        assert_eq!(Access::RWX.to_string(), "rwx");
        assert_eq!(format!("{:?}", Access::READ), "Access(r--)");
    }

    #[test]
    fn from_bits_masks_garbage() {
        assert_eq!(Access::from_bits(0xff), Access::RWX);
    }
}
