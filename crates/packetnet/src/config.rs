//! Packet-level simulation parameters.

/// Framing parameters of the simulated interconnect.
///
/// Defaults model TCP over Gigabit Ethernet with standard 1500-byte MTU:
/// 1448 bytes of application payload per segment (TCP with timestamps), and
/// 90 bytes of wire overhead per frame (Ethernet preamble + header + FCS +
/// inter-frame gap + IP + TCP headers). These two constants are what create
/// the *piece-wise* behaviour the paper's model captures: messages that fit
/// one frame see a much better effective rate per byte than the asymptotic
/// payload rate.
#[derive(Debug, Clone, Copy)]
pub struct PacketConfig {
    /// Application payload carried by one full frame, bytes.
    pub mtu_payload: u32,
    /// Wire overhead added to every frame's payload, bytes.
    pub frame_overhead: u32,
}

impl Default for PacketConfig {
    fn default() -> Self {
        PacketConfig {
            mtu_payload: 1448,
            frame_overhead: 90,
        }
    }
}

impl PacketConfig {
    /// Number of frames needed for a message of `bytes` (at least one: even
    /// zero-byte MPI messages put a header frame on the wire).
    pub(crate) fn frame_count(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            1
        } else {
            bytes.div_ceil(self.mtu_payload as u64)
        }
    }

    /// Bytes on the wire for a frame carrying `payload` bytes.
    pub fn wire_bytes(&self, payload: u32) -> u32 {
        payload + self.frame_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_counts() {
        let c = PacketConfig::default();
        assert_eq!(c.frame_count(0), 1);
        assert_eq!(c.frame_count(1), 1);
        assert_eq!(c.frame_count(1448), 1);
        assert_eq!(c.frame_count(1449), 2);
        assert_eq!(c.frame_count(14480), 10);
    }

    #[test]
    fn wire_overhead() {
        let c = PacketConfig::default();
        assert_eq!(c.wire_bytes(1448), 1538);
        assert_eq!(c.wire_bytes(0), 90);
    }
}
