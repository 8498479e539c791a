//! A widget.

pub struct Widget;

#[cfg(test)]
fn helper() -> Widget {
    Widget
}

impl Widget {}
