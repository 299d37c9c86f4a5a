//! Geographic and network metadata for simulated hosts.
//!
//! The paper's Figures 12–13 break the Mainnet population down by country
//! and autonomous system. The simulator attaches a [`HostMeta`] to every
//! host; the world generator samples these from the paper's reported
//! marginals, and the latency model derives RTTs from coarse regions.

/// Coarse latency regions. RTTs between regions come from a small matrix
/// approximating 2018 inter-continental latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Region {
    /// North America.
    NorthAmerica = 0,
    /// Europe.
    Europe = 1,
    /// East Asia.
    EastAsia = 2,
    /// Southeast Asia / Oceania.
    SouthAsia = 3,
    /// South America.
    SouthAmerica = 4,
    /// Africa / Middle East.
    Africa = 5,
}

impl Region {
    /// All regions.
    pub const ALL: [Region; 6] = [
        Region::NorthAmerica,
        Region::Europe,
        Region::EastAsia,
        Region::SouthAsia,
        Region::SouthAmerica,
        Region::Africa,
    ];
}

/// One-way base latency in milliseconds between regions (half the typical
/// RTT). Indexed `[from][to]`, symmetric.
const LATENCY_MATRIX_MS: [[u32; 6]; 6] = [
    //  NA   EU   EA   SA   SAm  AF
    [15, 45, 75, 95, 65, 85],    // NA
    [45, 10, 90, 70, 95, 55],    // EU
    [75, 90, 20, 45, 130, 110],  // EA
    [95, 70, 45, 25, 140, 80],   // SA
    [65, 95, 130, 140, 20, 120], // SAm
    [85, 55, 110, 80, 120, 30],  // AF
];

/// One-way latency between two regions, in ms, before jitter.
pub fn latency_between(a: Region, b: Region) -> u32 {
    LATENCY_MATRIX_MS[a as usize][b as usize]
}

/// Countries that appear in the paper's Figure 12, with their region.
/// (Code, label, region.)
pub const COUNTRIES: [(&str, Region); 16] = [
    ("US", Region::NorthAmerica),
    ("CN", Region::EastAsia),
    ("DE", Region::Europe),
    ("SG", Region::SouthAsia),
    ("KR", Region::EastAsia),
    ("FR", Region::Europe),
    ("CA", Region::NorthAmerica),
    ("RU", Region::Europe),
    ("GB", Region::Europe),
    ("JP", Region::EastAsia),
    ("NL", Region::Europe),
    ("AU", Region::SouthAsia),
    ("BR", Region::SouthAmerica),
    ("IN", Region::SouthAsia),
    ("UA", Region::Europe),
    ("ZA", Region::Africa),
];

/// Look up the region for a country code (defaults to Europe for codes not
/// in the table — the long tail).
pub const REGION_OF_COUNTRY: fn(&str) -> Region = |code| {
    COUNTRIES
        .iter()
        .find(|(c, _)| *c == code)
        .map(|(_, r)| *r)
        .unwrap_or(Region::Europe)
};

/// Static metadata attached to a host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostMeta {
    /// ISO-ish country code.
    pub country: &'static str,
    /// Autonomous-system label (e.g. `"Amazon"`, `"Comcast"`).
    pub asn: &'static str,
    /// Latency region (usually derived from the country).
    pub region: Region,
    /// Publicly reachable? Unreachable (NATed) hosts only receive
    /// solicited traffic and cannot accept TCP connections.
    pub reachable: bool,
}

impl HostMeta {
    /// A reachable US cloud host — the modal node in Fig 12/13.
    pub fn default_cloud() -> HostMeta {
        HostMeta {
            country: "US",
            asn: "Amazon",
            region: Region::NorthAmerica,
            reachable: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_symmetric() {
        for a in Region::ALL {
            for b in Region::ALL {
                assert_eq!(latency_between(a, b), latency_between(b, a));
            }
        }
    }

    #[test]
    fn intra_region_is_fastest() {
        for a in Region::ALL {
            for b in Region::ALL {
                if a != b {
                    assert!(latency_between(a, a) < latency_between(a, b));
                }
            }
        }
    }

    #[test]
    fn country_lookup() {
        assert_eq!(REGION_OF_COUNTRY("US"), Region::NorthAmerica);
        assert_eq!(REGION_OF_COUNTRY("CN"), Region::EastAsia);
        assert_eq!(REGION_OF_COUNTRY("XX"), Region::Europe);
    }
}
