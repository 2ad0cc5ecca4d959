//! Incremental JSON-lines frame reassembly for the serve reactor.
//!
//! A [`FrameBuffer`] accumulates whatever byte chunks the socket happens to
//! deliver and hands back complete newline-terminated frames.  The contract
//! that the frame property test (`crates/service/tests/proptest_frame.rs`)
//! pins down is **chunk-boundary invariance**: for any byte stream, the
//! sequence of extracted frames — including where (and whether) the
//! oversized trip fires — is identical no matter how the stream is split
//! into `push` calls.
//!
//! That invariance dictates the oversized rule.  "Reject only a partial
//! line that outgrew the cap" is split-*dependent*: a 2 MiB line delivered
//! in one chunk containing its newline would be parsed, while the same
//! line delivered byte-by-byte would trip the cap mid-accumulation.  Here
//! the rule is symmetric and split-invariant: a frame whose payload
//! (newline excluded) exceeds the cap is oversized **whether or not** its
//! newline has arrived yet.
//! Detection is eager — the buffer trips as soon as more than `max_bytes`
//! payload bytes of the current frame are buffered, so a slow-loris client
//! streaming an endless unterminated line is cut off at the cap, not at
//! available memory.
//!
//! Once tripped, the buffer stays tripped ([`FrameError::Oversized`] is
//! sticky): the stream position within a half-consumed frame is
//! unrecoverable, so the connection owner answers with the typed
//! `resource_exhausted` error and closes.  Frames are handed out as
//! `String`s via lossy UTF-8, matching the blocking loop's behavior —
//! invalid bytes become replacement characters and surface as a typed
//! parse error downstream, never a panic.

/// Terminal framing failure; the connection must be answered and closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The current frame's payload exceeded the configured cap.  Carries
    /// the cap so the typed error message can name the limit.
    Oversized {
        /// The configured per-frame payload cap, in bytes.
        max_bytes: usize,
    },
}

/// Reassembles newline-delimited frames from arbitrary byte chunks.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Index of the first unconsumed byte (start of the current frame).
    start: usize,
    /// Scan cursor: bytes in `start..scanned` are known newline-free, so
    /// repeated `next_frame` polls on a dribbling connection never rescan.
    scanned: usize,
    max_bytes: usize,
    tripped: bool,
}

impl FrameBuffer {
    /// A buffer enforcing `max_bytes` of payload per frame (the newline
    /// terminator is not counted).
    pub fn new(max_bytes: usize) -> FrameBuffer {
        FrameBuffer {
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            max_bytes,
            tripped: false,
        }
    }

    /// Append a chunk exactly as it came off the socket.
    pub fn push(&mut self, chunk: &[u8]) {
        if self.tripped {
            // The connection is already condemned; don't hoard its bytes.
            return;
        }
        // Reclaim consumed prefix before growing, once it dominates.
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Extract the next complete frame, if one is buffered.
    ///
    /// `Ok(Some(line))` is the frame payload without its `\n` (lossy
    /// UTF-8); `Ok(None)` means more bytes are needed.  Blank frames are
    /// returned as empty strings — skipping them is protocol policy, not
    /// framing policy.
    pub fn next_frame(&mut self) -> Result<Option<String>, FrameError> {
        if self.tripped {
            return Err(FrameError::Oversized {
                max_bytes: self.max_bytes,
            });
        }
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(offset) => {
                let end = self.scanned + offset;
                if end - self.start > self.max_bytes {
                    self.tripped = true;
                    return Err(FrameError::Oversized {
                        max_bytes: self.max_bytes,
                    });
                }
                let line = String::from_utf8_lossy(&self.buf[self.start..end]).into_owned();
                self.start = end + 1;
                self.scanned = self.start;
                Ok(Some(line))
            }
            None => {
                self.scanned = self.buf.len();
                if self.scanned - self.start > self.max_bytes {
                    self.tripped = true;
                    return Err(FrameError::Oversized {
                        max_bytes: self.max_bytes,
                    });
                }
                Ok(None)
            }
        }
    }

    /// Consume the trailing unterminated frame at EOF, if any.
    ///
    /// A client that writes its last request without a final newline and
    /// shuts down its write side still deserves an answer; `None` if the
    /// stream ended cleanly on a newline (or the buffer tripped).
    pub fn finish(&mut self) -> Option<String> {
        if self.tripped || self.start >= self.buf.len() {
            return None;
        }
        let line = String::from_utf8_lossy(&self.buf[self.start..]).into_owned();
        self.start = self.buf.len();
        self.scanned = self.start;
        Some(line)
    }

    /// Bytes buffered but not yet handed out as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether the buffer has permanently tripped the oversized cap.
    pub fn is_tripped(&self) -> bool {
        self.tripped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(fb: &mut FrameBuffer) -> Vec<String> {
        let mut out = Vec::new();
        while let Ok(Some(line)) = fb.next_frame() {
            out.push(line);
        }
        out
    }

    #[test]
    fn frames_survive_arbitrary_chunking() {
        let stream = b"alpha\nbeta\n\ngamma\n";
        for split in 0..stream.len() {
            let mut fb = FrameBuffer::new(1024);
            fb.push(&stream[..split]);
            let mut got = drain(&mut fb);
            fb.push(&stream[split..]);
            got.extend(drain(&mut fb));
            assert_eq!(got, ["alpha", "beta", "", "gamma"], "split at {split}");
            assert_eq!(fb.finish(), None);
        }
    }

    #[test]
    fn finish_yields_unterminated_tail() {
        let mut fb = FrameBuffer::new(1024);
        fb.push(b"first\nlast without newline");
        assert_eq!(fb.next_frame(), Ok(Some("first".into())));
        assert_eq!(fb.next_frame(), Ok(None));
        assert_eq!(fb.finish(), Some("last without newline".into()));
        assert_eq!(fb.finish(), None);
    }

    #[test]
    fn oversized_trips_with_or_without_newline_and_stays_tripped() {
        // Terminated frame over the cap.
        let mut fb = FrameBuffer::new(8);
        fb.push(b"123456789\n");
        assert_eq!(fb.next_frame(), Err(FrameError::Oversized { max_bytes: 8 }));
        assert!(fb.is_tripped());
        // Unterminated accumulation over the cap — same verdict.
        let mut fb = FrameBuffer::new(8);
        fb.push(b"12345");
        assert_eq!(fb.next_frame(), Ok(None));
        fb.push(b"6789");
        assert_eq!(fb.next_frame(), Err(FrameError::Oversized { max_bytes: 8 }));
        // Sticky: later pushes/polls can't resurrect the stream.
        fb.push(b"\nok\n");
        assert_eq!(fb.next_frame(), Err(FrameError::Oversized { max_bytes: 8 }));
        assert_eq!(fb.finish(), None);
    }

    #[test]
    fn frame_exactly_at_cap_is_allowed() {
        let mut fb = FrameBuffer::new(5);
        fb.push(b"12345\n12345");
        assert_eq!(fb.next_frame(), Ok(Some("12345".into())));
        assert_eq!(fb.next_frame(), Ok(None), "tail is at cap, not over");
        assert_eq!(fb.finish(), Some("12345".into()));
    }

    #[test]
    fn compaction_preserves_stream_position() {
        let mut fb = FrameBuffer::new(64);
        // Enough consumed prefix to trigger compaction, across many pushes.
        for i in 0..2048 {
            fb.push(format!("line-{i}\n").as_bytes());
            assert_eq!(fb.next_frame(), Ok(Some(format!("line-{i}"))));
        }
        assert_eq!(fb.buffered(), 0);
        fb.push(b"tail");
        assert_eq!(fb.finish(), Some("tail".into()));
    }

    #[test]
    fn invalid_utf8_is_lossy_not_fatal() {
        let mut fb = FrameBuffer::new(64);
        fb.push(&[0xff, 0xfe, b'x', b'\n']);
        let line = fb.next_frame().unwrap().unwrap();
        assert!(line.ends_with('x'));
        assert!(line.contains('\u{fffd}'));
    }
}
