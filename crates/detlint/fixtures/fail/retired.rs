// Retired rule ids are not annotations: the escape hatch names a live rule.
// detlint: allow(R12) -- x
fn hot() -> Vec<u8> {
    Vec::new()
}
