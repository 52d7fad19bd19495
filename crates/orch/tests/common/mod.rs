//! What several test files share.

use vulfi::FaultModel;

/// One representative of each fault-model kind, parameters included, so
/// a regression in any variant's RNG discipline fails the property.
pub const MODELS: [FaultModel; 7] = [
    FaultModel::SingleBitFlip,
    FaultModel::MultiBitBurst { width: 3 },
    FaultModel::StuckAt {
        bit: 5,
        value: true,
    },
    FaultModel::MaskCorrupt,
    FaultModel::AddressLine { bit: 2 },
    FaultModel::TemporalPair { gap: 4 },
    FaultModel::MemoryCell,
];
