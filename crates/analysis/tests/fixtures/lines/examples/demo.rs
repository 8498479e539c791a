//! Example.

fn main() {
}
