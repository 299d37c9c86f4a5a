// Retired rule ids, those rustc and clippy now decide, and the retired
// `order-insensitive` form are not annotations: the hatch names a live rule.
// detlint: allow(R12) -- x
// detlint: allow(R5) -- x
// detlint: order-insensitive -- x
fn hot() -> Vec<u8> {
    Vec::new()
}
