//! Binary.
fn main() {}
