//! Input splits.
//!
//! A MapReduce job consumes a file as a list of *splits*, one per map task.
//! Each split carries the replica hosts of the block it falls in, which is
//! what gives the scheduler its locality information.

use pic_simnet::topology::NodeId;

/// One map task's slice of an input file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSplit {
    /// Byte offset within the file.
    pub offset: u64,
    /// Byte length of the split.
    pub len: u64,
    /// Nodes holding a replica of the block containing this split.
    pub hosts: Vec<NodeId>,
}

impl InputSplit {
    /// Exclusive end offset.
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }
}

/// Divide `file_len` bytes into `n` near-equal contiguous ranges. The first
/// `file_len % n` ranges get one extra byte, so all of the file is covered
/// and no range is empty unless `file_len < n`.
pub fn even_ranges(file_len: u64, n: usize) -> Vec<(u64, u64)> {
    assert!(n > 0, "cannot split into zero ranges");
    let n64 = n as u64;
    let base = file_len / n64;
    let rem = file_len % n64;
    let mut out = Vec::with_capacity(n);
    let mut off = 0u64;
    for i in 0..n64 {
        let len = base + u64::from(i < rem);
        out.push((off, len));
        off += len;
    }
    debug_assert_eq!(off, file_len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_exactly() {
        for (len, n) in [(100u64, 7usize), (64, 64), (5, 10), (0, 3), (1 << 30, 13)] {
            let rs = even_ranges(len, n);
            assert_eq!(rs.len(), n);
            let mut off = 0;
            for (o, l) in &rs {
                assert_eq!(*o, off);
                off += l;
            }
            assert_eq!(off, len);
        }
    }

    #[test]
    fn ranges_are_balanced() {
        let rs = even_ranges(1003, 10);
        let min = rs.iter().map(|(_, l)| *l).min().unwrap();
        let max = rs.iter().map(|(_, l)| *l).max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn split_end() {
        let s = InputSplit {
            offset: 10,
            len: 5,
            hosts: vec![1],
        };
        assert_eq!(s.end(), 15);
    }
}
