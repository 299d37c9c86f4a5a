//! `enode://` URL formatting.
//!
//! Format: `enode://<id-hex>@<ipv4>:<tcp-port>[?discport=<udp-port>]`.
//! When `discport` is absent the UDP port equals the TCP port.

use crate::record::NodeRecord;

/// Format a record as an `enode://` URL, emitting `?discport=` only when the
/// UDP port differs from TCP.
pub fn format_enode(rec: &NodeRecord) -> String {
    let base = format!(
        "enode://{}@{}:{}",
        rec.id.to_hex(),
        rec.endpoint.ip,
        rec.endpoint.tcp_port
    );
    if rec.endpoint.udp_port != rec.endpoint.tcp_port {
        format!("{base}?discport={}", rec.endpoint.udp_port)
    } else {
        base
    }
}
