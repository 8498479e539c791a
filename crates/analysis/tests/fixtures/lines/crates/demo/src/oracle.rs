//! Test-only reference.

pub fn reference() -> u32 {
    2
}
