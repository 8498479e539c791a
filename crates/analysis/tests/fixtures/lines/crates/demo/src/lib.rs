//! Demo crate.

#[cfg(test)]
mod oracle;
pub mod widget;

/// Adds one.
pub fn inc(x: u32) -> u32 {
    x + 1
}

#[cfg(test)]
mod tests {
    #[test]
    fn inc() {
        assert_eq!(super::inc(1), 2);
    }
}
