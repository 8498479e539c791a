//! Skipped: a test tree.

#[test]
fn it() {}
