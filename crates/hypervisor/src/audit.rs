//! The isolation audit log.
//!
//! Every attack the isolation machinery blocks — an ungranted memory
//! operation, a driver-VM read of a protected region, a device DMA outside
//! its active region, a GPU access outside its aperture — is recorded here
//! with *which mechanism stopped it*. The paper's isolation claims (§4, §6)
//! become directly testable assertions over this log.

use std::fmt;

use paradice_mem::{DmaAddr, GuestPhysAddr, RegionId};

use crate::grants::GrantRef;
use crate::vm::VmId;

/// The isolation mechanism that blocked an attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockedBy {
    /// Grant-table validation of driver-VM memory operations (§4.1).
    GrantCheck,
    /// EPT permission stripping on protected regions (§4.2).
    EptProtection,
    /// IOMMU region gating of device DMA (§4.2).
    IommuRegion,
    /// Device-memory aperture bounds (GPU memory controller, §4.2).
    DeviceAperture,
    /// The per-guest wait-queue cap in the CVD backend (§5.1).
    WaitQueueCap,
    /// Protected-MMIO interposition: the register page is unmapped from the
    /// driver VM (§5.3(iii)).
    ProtectedMmio,
}

impl fmt::Display for BlockedBy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            BlockedBy::GrantCheck => "grant-table validation",
            BlockedBy::EptProtection => "EPT permission stripping",
            BlockedBy::IommuRegion => "IOMMU region gating",
            BlockedBy::DeviceAperture => "device-memory aperture bounds",
            BlockedBy::WaitQueueCap => "per-guest wait-queue cap",
            BlockedBy::ProtectedMmio => "protected-MMIO interposition",
        };
        f.write_str(name)
    }
}

/// One blocked (or notable) event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditEvent {
    /// A driver-VM memory operation failed grant validation.
    UngrantedMemOp {
        /// The driver VM that issued the hypercall.
        caller: VmId,
        /// The guest the operation targeted.
        target: VmId,
        /// The grant reference presented (if any).
        grant: Option<GrantRef>,
        /// Human-readable description of the request.
        description: String,
    },
    /// The driver VM touched a protected region through its EPT.
    ProtectedRegionAccess {
        /// The driver VM.
        caller: VmId,
        /// The protected guest-physical page (driver-VM space).
        gpa: GuestPhysAddr,
    },
    /// A device DMA was blocked by the IOMMU.
    DmaBlocked {
        /// The faulting bus address.
        dma: DmaAddr,
        /// Region the mapping belonged to, if any.
        region: Option<RegionId>,
    },
    /// A device access fell outside its permitted memory aperture.
    ApertureViolation {
        /// The device-memory offset of the access.
        offset: u64,
    },
    /// The driver VM wrote a protected MMIO register directly.
    ProtectedMmioWrite {
        /// The register offset.
        offset: u64,
    },
    /// A guest flooded its wait queue past the DoS cap.
    WaitQueueOverflow {
        /// The flooding guest.
        guest: VmId,
        /// Queue length at the time.
        depth: usize,
    },
}

impl AuditEvent {
    /// Stable machine-readable kind, used in the text export consumed by
    /// the lint suite's conformance pass (`paradice_analyzer::lint`).
    pub fn kind_str(&self) -> &'static str {
        match self {
            AuditEvent::UngrantedMemOp { .. } => "ungranted_mem_op",
            AuditEvent::ProtectedRegionAccess { .. } => "protected_region_access",
            AuditEvent::DmaBlocked { .. } => "dma_blocked",
            AuditEvent::ApertureViolation { .. } => "aperture_violation",
            AuditEvent::ProtectedMmioWrite { .. } => "protected_mmio_write",
            AuditEvent::WaitQueueOverflow { .. } => "wait_queue_overflow",
        }
    }

    /// Human-readable detail string for the text export.
    pub fn detail(&self) -> String {
        match self {
            AuditEvent::UngrantedMemOp {
                caller,
                target,
                grant,
                description,
            } => format!(
                "caller={caller:?} target={target:?} grant={grant:?} {description}"
            ),
            AuditEvent::ProtectedRegionAccess { caller, gpa } => {
                format!("caller={caller:?} gpa={gpa:?}")
            }
            AuditEvent::DmaBlocked { dma, region } => {
                format!("dma={dma:?} region={region:?}")
            }
            AuditEvent::ApertureViolation { offset } => format!("offset={offset:#x}"),
            AuditEvent::ProtectedMmioWrite { offset } => format!("offset={offset:#x}"),
            AuditEvent::WaitQueueOverflow { guest, depth } => {
                format!("guest={guest:?} depth={depth}")
            }
        }
    }

    /// The mechanism that blocked this event.
    pub fn blocked_by(&self) -> BlockedBy {
        match self {
            AuditEvent::UngrantedMemOp { .. } => BlockedBy::GrantCheck,
            AuditEvent::ProtectedRegionAccess { .. } => BlockedBy::EptProtection,
            AuditEvent::DmaBlocked { .. } => BlockedBy::IommuRegion,
            AuditEvent::ApertureViolation { .. } => BlockedBy::DeviceAperture,
            AuditEvent::ProtectedMmioWrite { .. } => BlockedBy::ProtectedMmio,
            AuditEvent::WaitQueueOverflow { .. } => BlockedBy::WaitQueueCap,
        }
    }
}

/// A timestamped audit record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// Virtual time of the event, ns.
    pub at_ns: u64,
    /// The event.
    pub event: AuditEvent,
}

/// The append-only audit log.
#[derive(Debug, Default)]
pub struct AuditLog {
    records: Vec<AuditRecord>,
}

impl AuditLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        AuditLog::default()
    }

    /// Appends an event at virtual time `at_ns`.
    pub fn record(&mut self, at_ns: u64, event: AuditEvent) {
        self.records.push(AuditRecord { at_ns, event });
    }

    /// All records, oldest first.
    pub fn records(&self) -> &[AuditRecord] {
        &self.records
    }

    /// Number of records blocked by a given mechanism.
    pub fn count_blocked_by(&self, by: BlockedBy) -> usize {
        self.records
            .iter()
            .filter(|r| r.event.blocked_by() == by)
            .count()
    }

    /// Returns `true` if no attack was ever blocked — i.e. a clean run.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total record count.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Clears the log (between experiment repetitions).
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Exports the log as stable tab-separated text
    /// (`at_ns\tkind\tdetail`, one record per line), the format
    /// `paradice_analyzer::lint::conformance::parse_audit_text` consumes.
    /// Newlines and tabs inside details are flattened to spaces so the
    /// format stays one-record-per-line.
    pub fn export_text(&self) -> String {
        let mut out = String::new();
        for record in &self.records {
            let detail = record
                .event
                .detail()
                .replace(['\n', '\t'], " ");
            out.push_str(&format!(
                "{}\t{}\t{}\n",
                record.at_ns,
                record.event.kind_str(),
                detail,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_with_mechanism_attribution() {
        let mut log = AuditLog::new();
        log.record(
            100,
            AuditEvent::UngrantedMemOp {
                caller: VmId(1),
                target: VmId(2),
                grant: Some(GrantRef(7)),
                description: "copy_to_guest 0xc0000000+8".to_owned(),
            },
        );
        log.record(
            200,
            AuditEvent::DmaBlocked {
                dma: DmaAddr::new(0x1000),
                region: Some(RegionId(1)),
            },
        );
        assert_eq!(log.len(), 2);
        assert_eq!(log.count_blocked_by(BlockedBy::GrantCheck), 1);
        assert_eq!(log.count_blocked_by(BlockedBy::IommuRegion), 1);
        assert_eq!(log.count_blocked_by(BlockedBy::DeviceAperture), 0);
        assert_eq!(log.records()[0].at_ns, 100);
    }

    #[test]
    fn clear_resets() {
        let mut log = AuditLog::new();
        log.record(
            1,
            AuditEvent::ApertureViolation { offset: 0xdead },
        );
        assert!(!log.is_empty());
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn export_text_is_one_record_per_line() {
        let mut log = AuditLog::new();
        log.record(
            120,
            AuditEvent::UngrantedMemOp {
                caller: VmId(1),
                target: VmId(2),
                grant: None,
                description: "write 64B\nat 0x9000".to_owned(),
            },
        );
        log.record(340, AuditEvent::ProtectedMmioWrite { offset: 0x44 });
        let text = log.export_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("120\tungranted_mem_op\t"));
        assert!(!lines[0].contains("0x9000\n")); // embedded newline flattened
        assert!(lines[1].starts_with("340\tprotected_mmio_write\t"));
    }

    #[test]
    fn blocked_by_display() {
        assert_eq!(
            BlockedBy::EptProtection.to_string(),
            "EPT permission stripping"
        );
    }
}
