//! Parsing and formatting of SimGrid-style units.
//!
//! Platform files (§6 of the paper) express link bandwidths, latencies and
//! host speeds with unit suffixes (`125MBps`, `50us`, `1Gf`). This module
//! converts between those strings and SI base values (bytes/s, seconds,
//! flop/s).

/// Error produced when a unit string cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct UnitError {
    /// The offending input.
    pub input: String,
    /// What was expected.
    pub expected: &'static str,
}

impl std::fmt::Display for UnitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot parse {:?} as {}", self.input, self.expected)
    }
}

impl std::error::Error for UnitError {}

fn split_suffix(s: &str) -> (&str, &str) {
    let trimmed = s.trim();
    let split = trimmed
        .char_indices()
        .find(|(_, c)| {
            !(c.is_ascii_digit() || *c == '.' || *c == '-' || *c == '+' || *c == 'e' || *c == 'E')
        })
        .map(|(i, _)| i)
        .unwrap_or(trimmed.len());
    // Guard against scientific notation capturing a trailing exponent letter
    // that actually starts a suffix (e.g. "1e3ms" splits at 'm').
    (&trimmed[..split], trimmed[split..].trim())
}

fn parse_value(num: &str, input: &str, expected: &'static str) -> Result<f64, UnitError> {
    num.parse::<f64>().map_err(|_| UnitError {
        input: input.to_string(),
        expected,
    })
}

/// Parses a bandwidth such as `125MBps` (bytes/s) or `1Gbps` (bits/s) into
/// bytes per second. A bare number is taken as bytes/s.
pub(crate) fn parse_bandwidth(s: &str) -> Result<f64, UnitError> {
    const EXPECTED: &str = "bandwidth (e.g. 125MBps, 1Gbps)";
    let (num, suffix) = split_suffix(s);
    let v = parse_value(num, s, EXPECTED)?;
    let factor = match suffix {
        "" | "Bps" => 1.0,
        "kBps" | "KBps" => 1e3,
        "MBps" => 1e6,
        "GBps" => 1e9,
        "bps" => 1.0 / 8.0,
        "kbps" | "Kbps" => 1e3 / 8.0,
        "Mbps" => 1e6 / 8.0,
        "Gbps" => 1e9 / 8.0,
        _ => {
            return Err(UnitError {
                input: s.to_string(),
                expected: EXPECTED,
            })
        }
    };
    Ok(v * factor)
}

/// Parses a latency such as `50us`, `1.5ms` or `2s` into seconds. A bare
/// number is taken as seconds.
pub(crate) fn parse_latency(s: &str) -> Result<f64, UnitError> {
    const EXPECTED: &str = "latency (e.g. 50us, 1ms)";
    let (num, suffix) = split_suffix(s);
    let v = parse_value(num, s, EXPECTED)?;
    let factor = match suffix {
        "" | "s" => 1.0,
        "ms" => 1e-3,
        "us" => 1e-6,
        "ns" => 1e-9,
        _ => {
            return Err(UnitError {
                input: s.to_string(),
                expected: EXPECTED,
            })
        }
    };
    Ok(v * factor)
}

/// Parses a compute speed such as `1Gf` or `2.5Gf` into flop/s. A bare
/// number is taken as flop/s.
pub(crate) fn parse_speed(s: &str) -> Result<f64, UnitError> {
    const EXPECTED: &str = "speed (e.g. 2.5Gf)";
    let (num, suffix) = split_suffix(s);
    let v = parse_value(num, s, EXPECTED)?;
    let factor = match suffix {
        "" | "f" => 1.0,
        "kf" | "Kf" => 1e3,
        "Mf" => 1e6,
        "Gf" => 1e9,
        "Tf" => 1e12,
        _ => {
            return Err(UnitError {
                input: s.to_string(),
                expected: EXPECTED,
            })
        }
    };
    Ok(v * factor)
}

/// Formats a bandwidth in bytes/s with the largest exact-looking suffix.
pub(crate) fn format_bandwidth(bytes_per_sec: f64) -> String {
    if bytes_per_sec >= 1e9 {
        format!("{}GBps", bytes_per_sec / 1e9)
    } else if bytes_per_sec >= 1e6 {
        format!("{}MBps", bytes_per_sec / 1e6)
    } else if bytes_per_sec >= 1e3 {
        format!("{}kBps", bytes_per_sec / 1e3)
    } else {
        format!("{bytes_per_sec}Bps")
    }
}

/// Formats a latency in seconds.
pub(crate) fn format_latency(secs: f64) -> String {
    if secs == 0.0 {
        "0s".to_string()
    } else if secs < 1e-6 {
        format!("{}ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{}us", secs * 1e6)
    } else if secs < 1.0 {
        format!("{}ms", secs * 1e3)
    } else {
        format!("{secs}s")
    }
}

/// Formats a speed in flop/s.
pub(crate) fn format_speed(flops: f64) -> String {
    if flops >= 1e9 {
        format!("{}Gf", flops / 1e9)
    } else if flops >= 1e6 {
        format!("{}Mf", flops / 1e6)
    } else {
        format!("{flops}f")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_byte_units() {
        assert_eq!(parse_bandwidth("125MBps").unwrap(), 125e6);
        assert_eq!(parse_bandwidth("1GBps").unwrap(), 1e9);
        assert_eq!(parse_bandwidth("1000").unwrap(), 1000.0);
    }

    #[test]
    fn bandwidth_bit_units() {
        assert_eq!(parse_bandwidth("1Gbps").unwrap(), 125e6);
        assert_eq!(parse_bandwidth("8bps").unwrap(), 1.0);
    }

    #[test]
    fn latency_units() {
        let approx = |s: &str, expect: f64| {
            let v = parse_latency(s).unwrap();
            assert!(
                (v - expect).abs() < 1e-15 * expect.max(1.0),
                "{s} parsed to {v}, expected {expect}"
            );
        };
        approx("50us", 50e-6);
        approx("1.5ms", 1.5e-3);
        approx("2s", 2.0);
        approx("10ns", 10e-9);
    }

    #[test]
    fn speed_units() {
        assert_eq!(parse_speed("2.5Gf").unwrap(), 2.5e9);
        assert_eq!(parse_speed("1Mf").unwrap(), 1e6);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_bandwidth("fast").is_err());
        assert!(parse_latency("50parsecs").is_err());
        assert!(parse_speed("").is_err());
    }

    #[test]
    fn format_roundtrip() {
        for s in ["125MBps", "1GBps", "5kBps"] {
            let v = parse_bandwidth(s).unwrap();
            assert_eq!(parse_bandwidth(&format_bandwidth(v)).unwrap(), v);
        }
        for s in ["50us", "1ms", "3s", "7ns"] {
            let v = parse_latency(s).unwrap();
            assert!((parse_latency(&format_latency(v)).unwrap() - v).abs() < 1e-18);
        }
        for s in ["2.5Gf", "10Mf"] {
            let v = parse_speed(s).unwrap();
            assert_eq!(parse_speed(&format_speed(v)).unwrap(), v);
        }
    }
}
