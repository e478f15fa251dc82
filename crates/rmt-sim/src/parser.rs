//! The programmable parser and deparser.
//!
//! RMT parsers are finite state machines: each state extracts one header
//! into the PHV and selects the next state from a field of that header.
//! Following §4.1.1 of the paper, the simulator maintains a *parse-path
//! bitmap* in the PHV with one bit per header type; the initialization block
//! keys its filtering tables on this bitmap.
//!
//! The parse state machine is fixed at provisioning time — the paper's
//! "Header Parsing" limitation (§7) is faithfully reproduced: runtime
//! programs can only see fields the compiled parser extracts.
//!
//! ## Deparsing
//!
//! Like real RMT hardware, the deparser *rebuilds* each header from the PHV
//! rather than patching the original bytes: every header type carries a
//! 1-bit *presence* field, set by the parser and settable/clearable by
//! actions. This is what lets the P4runpro recirculation block push its
//! state-carrying header for another pipeline pass (§4.1.3) and strip it
//! before the packet leaves the switch. Consequently every header must
//! declare *full bit coverage* — its fields must tile the header exactly —
//! which [`HeaderDef::validate_coverage`] checks at provisioning time.
//!
//! ## Compiled once, run per frame
//!
//! The parse graph never changes after provisioning, so each [`HeaderDef`]
//! is compiled when it is registered into two flat lists the per-frame
//! code runs over: `Extract`s (one fixed-width big-endian load, a shift
//! and a mask per field) for [`Parser::parse`], and `Deposit`s (the
//! field's bits placed into the aligned 8-byte words of the header, each
//! word built in a register and stored once) for [`Parser::deparse_into`].
//! Because fields tile a header exactly, the deparser only ever ORs bits
//! into a zero word — it never reads the frame it is writing.

use crate::error::{SimError, SimResult};
use crate::phv::{FieldId, FieldTable, Phv};

/// Index of a registered header type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HeaderTypeId(pub usize);

/// One extractable field within a header.
#[derive(Debug, Clone)]
pub struct HeaderField {
    /// Field.
    pub field: FieldId,
    /// Offset of the field's most significant bit from the start of the
    /// header, big-endian bit order.
    pub bit_offset: u16,
    /// Bits.
    pub bits: u8,
}

/// A fixed-length header type.
#[derive(Debug, Clone)]
pub struct HeaderDef {
    /// Human-readable name.
    pub name: String,
    /// Len bytes.
    pub len_bytes: usize,
    /// Fields.
    pub fields: Vec<HeaderField>,
    /// 1-bit PHV field: non-zero ⇒ this header is emitted by the deparser.
    pub presence: FieldId,
    /// Byte offset (relative to header start) of an RFC 1071 checksum over
    /// the whole header, recomputed at deparse time. Used by IPv4.
    pub checksum_at: Option<usize>,
    /// This header's bit in the parse-path bitmap.
    pub bitmap_bit: u8,
}

impl HeaderDef {
    /// Check that the declared fields tile the header exactly: no gaps, no
    /// overlaps, total width = `len_bytes * 8`. Required because the
    /// deparser reconstructs headers purely from the PHV.
    pub(crate) fn validate_coverage(&self) -> SimResult<()> {
        let mut covered = vec![false; self.len_bytes * 8];
        for hf in &self.fields {
            if hf.bits > 64 {
                return Err(SimError::Config(format!(
                    "header `{}`: a {}-bit field is wider than a PHV field can be",
                    self.name, hf.bits
                )));
            }
            for i in 0..u16::from(hf.bits) {
                let bit = usize::from(hf.bit_offset) + usize::from(i);
                if bit >= covered.len() {
                    return Err(SimError::Config(format!(
                        "header `{}`: field bits exceed header length",
                        self.name
                    )));
                }
                if covered[bit] {
                    return Err(SimError::Config(format!(
                        "header `{}`: overlapping fields at bit {bit}",
                        self.name
                    )));
                }
                covered[bit] = true;
            }
        }
        if covered.iter().any(|c| !c) {
            return Err(SimError::Config(format!(
                "header `{}`: fields do not cover every bit",
                self.name
            )));
        }
        Ok(())
    }
}

/// Where a parse transition goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextState {
    /// Accept.
    Accept,
    /// Reject.
    Reject,
    /// State.
    State(usize),
}

/// One parse state: extract `header`, then select on a field.
#[derive(Debug, Clone)]
pub struct ParseState {
    /// Header.
    pub header: HeaderTypeId,
    /// Field to select the next state on; `None` means unconditionally
    /// `default`.
    pub select: Option<FieldId>,
    /// `(value, mask, next)` transitions, first match wins.
    pub transitions: Vec<(u64, u64, NextState)>,
    /// Default.
    pub default: NextState,
}

/// Result of parsing one frame.
///
/// Deliberately `Copy`-cheap: `parse` runs once per pipeline pass, so the
/// result carries only the bitmap and payload offset (the set of parsed
/// headers is recoverable from the bitmap) rather than a heap-allocated
/// header list.
#[derive(Debug, Clone, Copy)]
pub struct ParseResult {
    /// Parse-path bitmap: bit `bitmap_bit` of each header seen is set.
    pub bitmap: u16,
    /// Offset of the first payload byte.
    pub payload_offset: usize,
}

/// One field of a header, compiled for the parser:
/// `phv[field] = (big_endian(header[at..at + nbytes]) >> shift) & mask`.
#[derive(Debug, Clone, Copy)]
struct Extract {
    field: FieldId,
    /// First byte of the window, relative to the header start.
    at: u16,
    /// Window width. Wherever the header is at least a word long the window
    /// is [`WORD`] bytes placed around the field, which makes the load one
    /// fixed-width instruction; only headers shorter than that and fields
    /// spanning nine bytes walk their bytes.
    nbytes: u8,
    /// Bits of the window below the field.
    shift: u8,
    mask: u64,
}

const WORD: usize = 8;

impl Extract {
    #[inline]
    fn load(&self, hdr: &[u8]) -> u64 {
        let at = usize::from(self.at);
        if usize::from(self.nbytes) == WORD {
            let window: [u8; WORD] = hdr[at..at + WORD].try_into().expect("slice of WORD bytes");
            (u64::from_be_bytes(window) >> self.shift) & self.mask
        } else {
            let window = &hdr[at..at + usize::from(self.nbytes)];
            let acc = window.iter().fold(0u128, |acc, &b| (acc << 8) | u128::from(b));
            (acc >> self.shift) as u64 & self.mask
        }
    }
}

/// A run of one field's bits inside one aligned 8-byte word of its header,
/// compiled for the deparser: `word |= ((phv[src] >> from) & mask) << to`.
/// A field that straddles a word boundary compiles to two runs.
#[derive(Debug, Clone, Copy)]
struct Deposit {
    /// The PHV field read — the header field itself, or its deparse
    /// override, resolved when the program is compiled.
    src: FieldId,
    from: u8,
    to: u8,
    mask: u64,
}

/// What [`Parser::parse`] and [`Parser::deparse_into`] run for one header
/// type: everything they need of its [`HeaderDef`], in the shape they use it.
#[derive(Debug, Clone)]
struct HeaderProgram {
    len_bytes: usize,
    presence: FieldId,
    /// `1 << bitmap_bit`.
    bitmap: u16,
    checksum_at: Option<usize>,
    extracts: Vec<Extract>,
    /// Runs sorted by header word.
    deposits: Vec<Deposit>,
    /// For each aligned 8-byte word of the header, where its runs end in
    /// `deposits`.
    word_ends: Vec<usize>,
}

impl HeaderProgram {
    /// Never panics, whatever the definition: a header that fails
    /// [`Parser::validate`] compiles to a program that is never run.
    fn compile(def: &HeaderDef, overrides: &[(FieldId, FieldId)]) -> HeaderProgram {
        let ones = |bits: usize| if bits >= 64 { u64::MAX } else { (1u64 << bits) - 1 };
        let len = def.len_bytes;
        let words = len.div_ceil(WORD);
        let mut extracts = Vec::with_capacity(def.fields.len());
        let mut runs: Vec<(usize, Deposit)> = Vec::with_capacity(def.fields.len());
        for hf in &def.fields {
            let (start, bits) = (usize::from(hf.bit_offset), usize::from(hf.bits));
            let end = start + bits;
            let first = start / 8;
            let span = end.div_ceil(8) - first;
            let (at, nbytes) = match bits {
                0 => (0, 0),
                _ if span <= WORD && len >= WORD => (first.min(len - WORD), WORD),
                _ => (first, span),
            };
            extracts.push(Extract {
                field: hf.field,
                at: at as u16,
                nbytes: nbytes as u8,
                shift: ((at + nbytes) * 8).saturating_sub(end) as u8,
                mask: ones(bits),
            });

            let src = overrides.iter().find(|(f, _)| *f == hf.field).map_or(hf.field, |(_, from)| *from);
            for word in start / 64..end.div_ceil(64).min(words) {
                let (lo, hi) = (start.max(64 * word), end.min(64 * (word + 1)));
                // `end - hi >= 64` only for a field wider than a PHV value,
                // whose high bits are zero anyway.
                if lo < hi && end - hi < 64 {
                    let run = Deposit {
                        src,
                        from: (end - hi) as u8,
                        to: (64 * (word + 1) - hi) as u8,
                        mask: ones(hi - lo),
                    };
                    runs.push((word, run));
                }
            }
        }
        runs.sort_by_key(|(word, _)| *word);
        let word_ends = (0..words).map(|w| runs.partition_point(|(word, _)| *word <= w)).collect();
        HeaderProgram {
            len_bytes: len,
            presence: def.presence,
            bitmap: 1u16.checked_shl(u32::from(def.bitmap_bit)).unwrap_or(0),
            checksum_at: def.checksum_at,
            extracts,
            deposits: runs.into_iter().map(|(_, run)| run).collect(),
            word_ends,
        }
    }
}

/// The compiled parse graph.
#[derive(Debug, Clone)]
pub struct Parser {
    headers: Vec<HeaderDef>,
    /// `headers[i]` compiled; rebuilt whenever a header or an override is
    /// registered, so a parser is runnable (and clonable) at any point.
    programs: Vec<HeaderProgram>,
    states: Vec<ParseState>,
    start: usize,
    /// Alternate start state used for frames arriving on the recirculation
    /// port (they carry the state-resume header in front of Ethernet).
    recirc_start: Option<usize>,
    /// Deparser emit order (defaults to header registration order).
    emit_order: Vec<HeaderTypeId>,
    /// Deparse-time substitutions: when emitting field `.0`, take the value
    /// of field `.1` instead. Lets a header carry a *next-pass* value (the
    /// recirculation block "rewrites the P4runpro headers", §4.1.3) while
    /// the working PHV copy — used as an RPB match key — keeps the current
    /// pass's value.
    deparse_overrides: Vec<(FieldId, FieldId)>,
}

impl Parser {
    /// Construct with defaults appropriate to the type.
    pub fn new() -> Parser {
        Parser {
            headers: Vec::new(),
            programs: Vec::new(),
            states: Vec::new(),
            start: 0,
            recirc_start: None,
            emit_order: Vec::new(),
            deparse_overrides: Vec::new(),
        }
    }

    /// Add header.
    pub fn add_header(&mut self, def: HeaderDef) -> HeaderTypeId {
        assert!(self.headers.len() < 16, "parse bitmap holds at most 16 header types");
        let id = HeaderTypeId(self.headers.len());
        self.programs.push(HeaderProgram::compile(&def, &self.deparse_overrides));
        self.headers.push(def);
        self.emit_order.push(id);
        id
    }

    /// Add state.
    pub fn add_state(&mut self, state: ParseState) -> usize {
        self.states.push(state);
        self.states.len() - 1
    }

    /// Set start.
    pub fn set_start(&mut self, state: usize) {
        self.start = state;
    }

    /// Set recirc start.
    pub fn set_recirc_start(&mut self, state: usize) {
        self.recirc_start = Some(state);
    }

    /// Override the deparser emit order (e.g. recirculation header first).
    pub fn set_emit_order(&mut self, order: Vec<HeaderTypeId>) {
        self.emit_order = order;
    }

    /// When the deparser emits `field`, substitute the value of `from`.
    pub fn set_deparse_override(&mut self, field: FieldId, from: FieldId) {
        self.deparse_overrides.push((field, from));
        let compile = |def| HeaderProgram::compile(def, &self.deparse_overrides);
        self.programs = self.headers.iter().map(compile).collect();
    }

    /// Headers.
    pub(crate) fn headers(&self) -> &[HeaderDef] {
        &self.headers
    }

    /// Check everything the per-frame code indexes with, so that a parser
    /// that validates can neither panic nor spin on any frame: the states
    /// and headers every transition, start state and emit slot names exist,
    /// fields tile their header ([`HeaderDef::validate_coverage`]), bitmap
    /// bits fit the 16-bit bitmap, checksum slots lie inside their header,
    /// and no cycle of states consumes zero bytes. Called at provisioning.
    pub fn validate(&self) -> SimResult<()> {
        if self.states.is_empty() {
            return Err(SimError::Config("parser has no states".into()));
        }
        for def in &self.headers {
            def.validate_coverage()?;
            if def.bitmap_bit >= 16 {
                return Err(SimError::Config(format!(
                    "header `{}`: bitmap bit {} does not fit the 16-bit parse bitmap",
                    def.name, def.bitmap_bit
                )));
            }
            if def.checksum_at.is_some_and(|at| def.len_bytes < 2 || at > def.len_bytes - 2) {
                return Err(SimError::Config(format!(
                    "header `{}`: checksum slot lies outside its {} bytes",
                    def.name, def.len_bytes
                )));
            }
        }
        if let Some(id) = self.emit_order.iter().find(|id| id.0 >= self.headers.len()) {
            return Err(SimError::Config(format!("emit order names unknown header {}", id.0)));
        }
        let starts = [Some(self.start), self.recirc_start];
        if let Some(s) = starts.into_iter().flatten().find(|s| *s >= self.states.len()) {
            return Err(SimError::Config(format!("start state {s} does not exist")));
        }
        for (i, state) in self.states.iter().enumerate() {
            if state.header.0 >= self.headers.len() {
                return Err(SimError::Config(format!(
                    "parse state {i} extracts unknown header {}",
                    state.header.0
                )));
            }
            if let Some(s) = self.successors(i).find(|s| *s >= self.states.len()) {
                return Err(SimError::Config(format!(
                    "parse state {i} transitions to state {s}, which does not exist"
                )));
            }
        }
        // A cycle whose every state extracts a zero-length header consumes
        // no byte and, after one turn, changes no field, so a frame that
        // enters it never leaves. (A cycle that consumes bytes ends when
        // the frame does.)
        let mut mark = vec![Mark::New; self.states.len()];
        if (0..self.states.len()).any(|s| self.on_empty_cycle(s, &mut mark)) {
            return Err(SimError::Config(
                "parse states extracting zero-length headers form a cycle".into(),
            ));
        }
        Ok(())
    }

    /// The states `state` can hand over to.
    fn successors(&self, state: usize) -> impl Iterator<Item = usize> + '_ {
        let st = &self.states[state];
        st.transitions.iter().map(|t| t.2).chain([st.default]).filter_map(|next| match next {
            NextState::State(s) => Some(s),
            NextState::Accept | NextState::Reject => None,
        })
    }

    /// Depth-first search over the states that extract zero-length headers.
    fn on_empty_cycle(&self, state: usize, mark: &mut [Mark]) -> bool {
        if self.headers[self.states[state].header.0].len_bytes != 0 || mark[state] == Mark::Done {
            return false;
        }
        if mark[state] == Mark::Open {
            return true;
        }
        mark[state] = Mark::Open;
        let cyclic = self.successors(state).any(|s| self.on_empty_cycle(s, mark));
        mark[state] = Mark::Done;
        cyclic
    }

    /// The number of distinct accepting parse paths, which is the number of
    /// filtering tables `K` the initialization block provisions (§5).
    pub fn num_paths(&self) -> usize {
        fn walk(parser: &Parser, state: usize, depth: usize) -> usize {
            if depth > parser.states.len() {
                return 0;
            }
            let st = &parser.states[state];
            let mut total = 0;
            let mut targets: Vec<NextState> = st.transitions.iter().map(|t| t.2).collect();
            targets.push(st.default);
            for t in targets {
                total += match t {
                    NextState::Accept => 1,
                    NextState::Reject => 0,
                    NextState::State(s) => walk(parser, s, depth + 1),
                };
            }
            total
        }
        if self.states.is_empty() {
            0
        } else {
            walk(self, self.start, 0)
        }
    }

    /// Run the parse state machine over `frame`, extracting fields into
    /// `phv`, setting presence bits, and maintaining the parse-path bitmap.
    ///
    /// `from_recirc` selects the recirculation-port start state when one is
    /// configured.
    pub fn parse(
        &self,
        table: &FieldTable,
        frame: &[u8],
        phv: &mut Phv,
        from_recirc: bool,
    ) -> SimResult<ParseResult> {
        let mut offset = 0usize;
        let mut bitmap = 0u16;
        let mut state_idx = match (from_recirc, self.recirc_start) {
            (true, Some(s)) => s,
            _ => self.start,
        };
        if self.states.is_empty() {
            return Err(SimError::Config("parser has no states".into()));
        }
        loop {
            let state = &self.states[state_idx];
            let prog = &self.programs[state.header.0];
            let Some(hdr) = frame.get(offset..offset + prog.len_bytes) else {
                return Err(SimError::ParserReject);
            };
            for x in &prog.extracts {
                phv.set(table, x.field, x.load(hdr));
            }
            phv.set(table, prog.presence, 1);
            bitmap |= prog.bitmap;
            offset += prog.len_bytes;

            let next = match state.select {
                None => state.default,
                Some(sel) => {
                    let v = phv.get(sel);
                    state
                        .transitions
                        .iter()
                        .find(|(value, mask, _)| v & mask == value & mask)
                        .map(|t| t.2)
                        .unwrap_or(state.default)
                }
            };
            match next {
                NextState::Accept => break,
                NextState::Reject => return Err(SimError::ParserReject),
                NextState::State(s) => state_idx = s,
            }
        }
        let intr = table.intrinsics();
        phv.set(table, intr.parse_bitmap, u64::from(bitmap));
        phv.set(table, intr.pkt_len, frame.len() as u64);
        Ok(ParseResult { bitmap, payload_offset: offset })
    }

    /// Rebuild the frame from the PHV into `out` (cleared first): every
    /// header whose presence bit is set is emitted (in `emit_order`),
    /// followed by `payload`. The caller owns the buffer, so the switch
    /// recycles emitted frames and ping-pongs recirculation buffers instead
    /// of allocating a `Vec` per frame.
    pub fn deparse_into(&self, _table: &FieldTable, phv: &Phv, payload: &[u8], out: &mut Vec<u8>) {
        out.clear();
        out.reserve(64 + payload.len());
        for id in &self.emit_order {
            let prog = &self.programs[id.0];
            if phv.get(prog.presence) == 0 {
                continue;
            }
            let start = out.len();
            let mut next = 0;
            for &end in &prog.word_ends {
                let mut word = 0u64;
                for d in &prog.deposits[next..end] {
                    word |= ((phv.get(d.src) >> d.from) & d.mask) << d.to;
                }
                next = end;
                out.extend_from_slice(&word.to_be_bytes());
            }
            // The last word of a header is appended whole; cut its padding.
            out.truncate(start + prog.len_bytes);
            if let Some(at) = prog.checksum_at {
                let hdr = &mut out[start..];
                hdr[at..at + 2].fill(0);
                let c = netpkt::checksum::checksum(hdr);
                hdr[at..at + 2].copy_from_slice(&c.to_be_bytes());
            }
        }
        out.extend_from_slice(payload);
    }
}

/// Depth-first-search colouring for [`Parser::validate`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mark {
    New,
    Open,
    Done,
}

impl Default for Parser {
    fn default() -> Self {
        Parser::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The field-at-a-time reference the compiled programs are checked
    /// against: extract `bits` bits starting `bit_offset` bits into `data`
    /// (big-endian), accumulating the spanning bytes (at most 9 for a
    /// misaligned 64-bit field) and shifting the window down.
    fn extract_bits(data: &[u8], bit_offset: u16, bits: u8) -> u64 {
        debug_assert!(bits <= 64);
        if bits == 0 {
            return 0;
        }
        let off = usize::from(bit_offset);
        let last_bit = off + usize::from(bits) - 1;
        let first = off / 8;
        let last = last_bit / 8;
        // Bits below the field in the final byte, dropped by the right shift.
        let tail = 7 - (last_bit % 8);
        let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
        if last - first < 8 {
            let mut acc: u64 = 0;
            for &b in &data[first..=last] {
                acc = (acc << 8) | u64::from(b);
            }
            (acc >> tail) & mask
        } else {
            // A misaligned 64-bit field spans 9 bytes; go through u128.
            let mut acc: u128 = 0;
            for &b in &data[first..=last] {
                acc = (acc << 8) | u128::from(b);
            }
            ((acc >> tail) as u64) & mask
        }
    }

    /// Reference deposit of `bits` bits of `value` at `bit_offset` into `data`
    /// (big-endian): value and mask are aligned into a u128 window over the
    /// spanning bytes, then merged a byte at a time with read-modify-write so
    /// neighbouring fields are preserved.
    fn deposit_bits(data: &mut [u8], bit_offset: u16, bits: u8, value: u64) {
        debug_assert!(bits <= 64);
        if bits == 0 {
            return;
        }
        let off = usize::from(bit_offset);
        let last_bit = off + usize::from(bits) - 1;
        let first = off / 8;
        let last = last_bit / 8;
        let tail = 7 - (last_bit % 8);
        let mask: u128 = if bits == 64 { u128::from(u64::MAX) } else { (1u128 << bits) - 1 };
        let m = mask << tail;
        let v = (u128::from(value) & mask) << tail;
        let nbytes = last - first + 1;
        for (i, byte) in data[first..=last].iter_mut().enumerate() {
            let shift = 8 * (nbytes - 1 - i);
            let bm = ((m >> shift) & 0xff) as u8;
            let bv = ((v >> shift) & 0xff) as u8;
            *byte = (*byte & !bm) | bv;
        }
    }

    #[test]
    fn bit_extraction_roundtrip() {
        let mut buf = [0u8; 8];
        deposit_bits(&mut buf, 5, 11, 0x5A5);
        assert_eq!(extract_bits(&buf, 5, 11), 0x5A5);
        assert_eq!(extract_bits(&buf, 0, 5), 0);
        assert_eq!(extract_bits(&buf, 16, 8), 0);
    }

    /// The byte-wise `extract_bits`/`deposit_bits` against a bit-at-a-time
    /// reference, over every (offset, width) window that fits a 12-byte
    /// buffer — including the misaligned 64-bit windows that span 9 bytes.
    #[test]
    fn byte_wise_bit_ops_match_bit_wise_reference() {
        fn ref_extract(data: &[u8], bit_offset: u16, bits: u8) -> u64 {
            let mut v: u64 = 0;
            for i in 0..bits {
                let bit = usize::from(bit_offset) + usize::from(i);
                let b = (data[bit / 8] >> (7 - (bit % 8))) & 1;
                v = (v << 1) | u64::from(b);
            }
            v
        }
        fn ref_deposit(data: &mut [u8], bit_offset: u16, bits: u8, value: u64) {
            for i in 0..bits {
                let bit = usize::from(bit_offset) + usize::from(i);
                let b = ((value >> (bits - 1 - i)) & 1) as u8;
                let mask = 1u8 << (7 - (bit % 8));
                if b == 1 {
                    data[bit / 8] |= mask;
                } else {
                    data[bit / 8] &= !mask;
                }
            }
        }
        let mut pattern = [0u8; 12];
        for (i, b) in pattern.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(0x5D) ^ 0xA7;
        }
        let mut value_seed = 0x9E37_79B9_7F4A_7C15u64;
        for bits in 1..=64u8 {
            for off in 0..=(96 - u16::from(bits)) {
                assert_eq!(
                    extract_bits(&pattern, off, bits),
                    ref_extract(&pattern, off, bits),
                    "extract mismatch at off={off} bits={bits}"
                );
                value_seed = value_seed.wrapping_mul(6364136223846793005).wrapping_add(off.into());
                let mut got = pattern;
                let mut want = pattern;
                deposit_bits(&mut got, off, bits, value_seed);
                ref_deposit(&mut want, off, bits, value_seed);
                assert_eq!(got, want, "deposit mismatch at off={off} bits={bits}");
            }
        }
    }

    #[test]
    fn extract_full_bytes() {
        let buf = [0xDE, 0xAD, 0xBE, 0xEF];
        assert_eq!(extract_bits(&buf, 0, 32), 0xDEADBEEF);
        assert_eq!(extract_bits(&buf, 8, 16), 0xADBE);
    }

    /// [`Parser::deparse_into`] a fresh buffer.
    fn deparse(p: &Parser, table: &FieldTable, phv: &Phv, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        p.deparse_into(table, phv, payload, &mut out);
        out
    }

    /// A 2-byte outer header (pad + kind) optionally followed by a 1-byte
    /// inner header, selected on `kind == 0x42`.
    fn tiny_parser(table: &mut FieldTable) -> (Parser, FieldId, FieldId) {
        let mut p = Parser::new();
        let f_pad = table.register("hdr.outer.pad", 8).unwrap();
        let f_kind = table.register("hdr.outer.kind", 8).unwrap();
        let f_val = table.register("hdr.inner.val", 8).unwrap();
        let v_outer = table.register("hdr.outer.$valid", 1).unwrap();
        let v_inner = table.register("hdr.inner.$valid", 1).unwrap();
        let outer = p.add_header(HeaderDef {
            name: "outer".into(),
            len_bytes: 2,
            fields: vec![
                HeaderField { field: f_pad, bit_offset: 0, bits: 8 },
                HeaderField { field: f_kind, bit_offset: 8, bits: 8 },
            ],
            presence: v_outer,
            checksum_at: None,
            bitmap_bit: 0,
        });
        let inner = p.add_header(HeaderDef {
            name: "inner".into(),
            len_bytes: 1,
            fields: vec![HeaderField { field: f_val, bit_offset: 0, bits: 8 }],
            presence: v_inner,
            checksum_at: None,
            bitmap_bit: 1,
        });
        let s_inner = p.add_state(ParseState {
            header: inner,
            select: None,
            transitions: vec![],
            default: NextState::Accept,
        });
        let s_outer = p.add_state(ParseState {
            header: outer,
            select: Some(f_kind),
            transitions: vec![(0x42, 0xff, NextState::State(s_inner))],
            default: NextState::Accept,
        });
        p.set_start(s_outer);
        p.validate().unwrap();
        (p, f_kind, f_val)
    }

    #[test]
    fn parse_follows_transitions_and_sets_bitmap() {
        let mut table = FieldTable::new();
        let (p, _, f_val) = tiny_parser(&mut table);
        let mut phv = Phv::new(&table);
        let r = p.parse(&table, &[0x00, 0x42, 0x99, 0xAA], &mut phv, false).unwrap();
        assert_eq!(r.bitmap, 0b11);
        assert_eq!(phv.get(f_val), 0x99);
        assert_eq!(r.payload_offset, 3);

        let mut phv2 = Phv::new(&table);
        let r2 = p.parse(&table, &[0x00, 0x00, 0x99], &mut phv2, false).unwrap();
        assert_eq!(r2.bitmap, 0b01);
        assert_eq!(r2.payload_offset, 2);
    }

    #[test]
    fn parse_truncated_rejects() {
        let mut table = FieldTable::new();
        let (p, _, _) = tiny_parser(&mut table);
        let mut phv = Phv::new(&table);
        assert!(matches!(p.parse(&table, &[0x00], &mut phv, false), Err(SimError::ParserReject)));
        assert!(p.parse(&table, &[0x00, 0x42], &mut phv, false).is_err());
    }

    #[test]
    fn deparse_rebuilds_with_modified_fields() {
        let mut table = FieldTable::new();
        let (p, _, f_val) = tiny_parser(&mut table);
        let mut phv = Phv::new(&table);
        let frame = [0x00, 0x42, 0x99, 0xAA];
        let r = p.parse(&table, &frame, &mut phv, false).unwrap();
        phv.set(&table, f_val, 0x77);
        let out = deparse(&p, &table, &phv, &frame[r.payload_offset..]);
        assert_eq!(out, vec![0x00, 0x42, 0x77, 0xAA]);
    }

    #[test]
    fn deparse_honours_presence_push_and_pop() {
        let mut table = FieldTable::new();
        let (p, _, f_val) = tiny_parser(&mut table);
        let v_inner = table.lookup("hdr.inner.$valid").unwrap();
        let mut phv = Phv::new(&table);
        // Parse a frame with no inner header, then push one.
        let frame = [0x00, 0x00, 0xAA];
        let r = p.parse(&table, &frame, &mut phv, false).unwrap();
        phv.set(&table, v_inner, 1);
        phv.set(&table, f_val, 0x55);
        let out = deparse(&p, &table, &phv, &frame[r.payload_offset..]);
        assert_eq!(out, vec![0x00, 0x00, 0x55, 0xAA]);
        // Now pop it again.
        phv.set(&table, v_inner, 0);
        let out = deparse(&p, &table, &phv, &frame[r.payload_offset..]);
        assert_eq!(out, vec![0x00, 0x00, 0xAA]);
    }

    #[test]
    fn coverage_validation_catches_gaps_and_overlaps() {
        let mut table = FieldTable::new();
        let f = table.register("f", 8).unwrap();
        let v = table.register("v", 1).unwrap();
        let gap = HeaderDef {
            name: "gap".into(),
            len_bytes: 2,
            fields: vec![HeaderField { field: f, bit_offset: 0, bits: 8 }],
            presence: v,
            checksum_at: None,
            bitmap_bit: 0,
        };
        assert!(gap.validate_coverage().is_err());
        let overlap = HeaderDef {
            name: "ovl".into(),
            len_bytes: 1,
            fields: vec![
                HeaderField { field: f, bit_offset: 0, bits: 8 },
                HeaderField { field: f, bit_offset: 4, bits: 4 },
            ],
            presence: v,
            checksum_at: None,
            bitmap_bit: 0,
        };
        assert!(overlap.validate_coverage().is_err());
    }

    #[test]
    fn num_paths_counts_accepting_paths() {
        let mut table = FieldTable::new();
        let (p, _, _) = tiny_parser(&mut table);
        assert_eq!(p.num_paths(), 2);
    }

    #[test]
    fn recirc_start_state_used_for_recirc_port() {
        let mut table = FieldTable::new();
        let f_tag = table.register("hdr.rc.tag", 8).unwrap();
        let v_rc = table.register("hdr.rc.$valid", 1).unwrap();
        let (mut p, _, _) = {
            // Build the tiny parser inline so we can extend it.
            let mut p = Parser::new();
            let f_pad = table.register("hdr.o.pad", 8).unwrap();
            let v_o = table.register("hdr.o.$valid", 1).unwrap();
            let outer = p.add_header(HeaderDef {
                name: "o".into(),
                len_bytes: 1,
                fields: vec![HeaderField { field: f_pad, bit_offset: 0, bits: 8 }],
                presence: v_o,
                checksum_at: None,
                bitmap_bit: 0,
            });
            let s = p.add_state(ParseState {
                header: outer,
                select: None,
                transitions: vec![],
                default: NextState::Accept,
            });
            p.set_start(s);
            (p, f_pad, v_o)
        };
        let rc = p.add_header(HeaderDef {
            name: "rc".into(),
            len_bytes: 1,
            fields: vec![HeaderField { field: f_tag, bit_offset: 0, bits: 8 }],
            presence: v_rc,
            checksum_at: None,
            bitmap_bit: 1,
        });
        let s_rc = p.add_state(ParseState {
            header: rc,
            select: None,
            transitions: vec![],
            default: NextState::State(0),
        });
        p.set_recirc_start(s_rc);
        let mut phv = Phv::new(&table);
        let r = p.parse(&table, &[0x7e, 0x01], &mut phv, true).unwrap();
        assert_eq!(phv.get(f_tag), 0x7e);
        assert_eq!(r.bitmap, 0b11);
        // Normal port ignores the recirc state.
        let mut phv2 = Phv::new(&table);
        let r2 = p.parse(&table, &[0x7e], &mut phv2, false).unwrap();
        assert_eq!(r2.bitmap, 0b01);
    }

    #[test]
    fn intrinsic_pkt_len_set() {
        let mut table = FieldTable::new();
        let (p, _, _) = tiny_parser(&mut table);
        let mut phv = Phv::new(&table);
        p.parse(&table, &[0, 0, 1, 2, 3], &mut phv, false).unwrap();
        assert_eq!(phv.get(table.intrinsics().pkt_len), 5);
    }

    /// A parser whose one state extracts `def` and accepts.
    fn parser_of(def: HeaderDef) -> Parser {
        let mut p = Parser::new();
        let h = p.add_header(def);
        p.add_state(ParseState {
            header: h,
            select: None,
            transitions: vec![],
            default: NextState::Accept,
        });
        p
    }

    /// A valid one-byte header, to be bent out of shape by the rejection
    /// tests below.
    fn one_byte_header(table: &mut FieldTable) -> HeaderDef {
        let def = HeaderDef {
            name: "b".into(),
            len_bytes: 1,
            fields: vec![HeaderField {
                field: table.register("hdr.b.f", 8).unwrap(),
                bit_offset: 0,
                bits: 8,
            }],
            presence: table.register("hdr.b.$valid", 1).unwrap(),
            checksum_at: None,
            bitmap_bit: 0,
        };
        parser_of(def.clone()).validate().unwrap();
        def
    }

    fn rejected(p: &Parser, what: &str) {
        match p.validate() {
            Err(SimError::Config(msg)) => assert!(msg.contains(what), "`{msg}` lacks `{what}`"),
            other => panic!("expected a config error naming `{what}`, got {other:?}"),
        }
    }

    #[test]
    fn checksum_slot_outside_the_header_is_rejected() {
        let def = one_byte_header(&mut FieldTable::new());
        // Byte 0 of a one-byte header leaves no room for the second byte.
        rejected(&parser_of(HeaderDef { checksum_at: Some(0), ..def }), "checksum slot");
    }

    #[test]
    fn dangling_state_and_header_ids_are_rejected() {
        let base = parser_of(one_byte_header(&mut FieldTable::new()));

        let mut p = base.clone();
        p.states[0].default = NextState::State(7);
        rejected(&p, "state 7");

        let mut p = base.clone();
        p.states[0].transitions.push((0, 0, NextState::State(3)));
        rejected(&p, "state 3");

        let mut p = base.clone();
        p.states[0].header = HeaderTypeId(5);
        rejected(&p, "unknown header 5");

        let mut p = base.clone();
        p.set_start(2);
        rejected(&p, "start state 2");

        let mut p = base.clone();
        p.set_recirc_start(4);
        rejected(&p, "start state 4");

        let mut p = base;
        p.set_emit_order(vec![HeaderTypeId(0), HeaderTypeId(9)]);
        rejected(&p, "unknown header 9");
    }

    #[test]
    fn bitmap_bit_past_the_bitmap_is_rejected() {
        let def = one_byte_header(&mut FieldTable::new());
        rejected(&parser_of(HeaderDef { bitmap_bit: 16, ..def }), "bitmap bit 16");
    }

    #[test]
    fn zero_length_header_on_a_cycle_is_rejected() {
        let mut table = FieldTable::new();
        let mut p = parser_of(one_byte_header(&mut table));
        let v = table.register("hdr.mark.$valid", 1).unwrap();
        let mark = p.add_header(HeaderDef {
            name: "mark".into(),
            len_bytes: 0,
            fields: vec![],
            presence: v,
            checksum_at: None,
            bitmap_bit: 1,
        });
        // b -> mark -> accept: a zero-length header off any cycle is fine.
        let s_mark = p.add_state(ParseState {
            header: mark,
            select: None,
            transitions: vec![],
            default: NextState::Accept,
        });
        p.states[0].default = NextState::State(s_mark);
        p.validate().unwrap();
        // mark -> b -> mark consumes a byte per turn and ends with the frame.
        p.states[s_mark].default = NextState::State(0);
        p.validate().unwrap();
        let mut phv = Phv::new(&table);
        assert!(matches!(p.parse(&table, &[1, 2, 3], &mut phv, false), Err(SimError::ParserReject)));
        // mark -> mark never ends.
        p.states[s_mark].transitions.push((0, 0, NextState::State(s_mark)));
        rejected(&p, "zero-length");
    }

    #[test]
    fn field_wider_than_a_phv_value_is_rejected() {
        let def = one_byte_header(&mut FieldTable::new());
        let wide = HeaderDef {
            len_bytes: 9,
            fields: vec![HeaderField { field: def.fields[0].field, bit_offset: 0, bits: 72 }],
            ..def
        };
        assert!(wide.validate_coverage().is_err());
    }

    // ---- compiled programs ≡ the field-at-a-time reference -----------------

    /// Recompute the RFC 1071 checksum of `hdr` into its slot at `at`.
    fn fill_checksum(hdr: &mut [u8], at: usize) {
        hdr[at..at + 2].fill(0);
        let c = netpkt::checksum::checksum(hdr);
        hdr[at..at + 2].copy_from_slice(&c.to_be_bytes());
    }

    /// The deparser as it was before headers were compiled: every field
    /// deposited on its own, overrides searched per field.
    fn reference_deparse(p: &Parser, phv: &Phv, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        for id in &p.emit_order {
            let def = &p.headers[id.0];
            if phv.get(def.presence) == 0 {
                continue;
            }
            let mut hdr = vec![0u8; def.len_bytes];
            for hf in &def.fields {
                let src = p
                    .deparse_overrides
                    .iter()
                    .find(|(f, _)| *f == hf.field)
                    .map_or(hf.field, |(_, from)| *from);
                deposit_bits(&mut hdr, hf.bit_offset, hf.bits, phv.get(src));
            }
            if let Some(at) = def.checksum_at {
                fill_checksum(&mut hdr, at);
            }
            out.extend_from_slice(&hdr);
        }
        out.extend_from_slice(payload);
        out
    }

    /// One generated header: `(field width, how much wider its PHV field
    /// is)` per field, and whether and where it carries a checksum.
    type HeaderShape = (Vec<(u8, u8)>, bool, u16);

    /// Sub-byte, byte-multiple and arbitrary widths in equal parts; laid
    /// end to end they put fields at every alignment, including 64-bit
    /// fields that span nine bytes.
    fn arb_header() -> impl Strategy<Value = HeaderShape> {
        let width = prop_oneof![1u8..8, prop::sample::select(vec![8u8, 16, 32, 48, 64]), 1u8..=64];
        (prop::collection::vec((width, 0u8..4), 1..9), any::<bool>(), any::<u16>())
    }

    /// Register the shapes' fields and chain their headers start to accept.
    /// Returns the parser and where each header starts in a frame.
    fn build_layout(
        shapes: &[HeaderShape],
        emit_keys: &[u16],
        ovr: (bool, u16, u16),
        table: &mut FieldTable,
    ) -> (Parser, Vec<usize>) {
        let mut p = Parser::new();
        let mut starts = Vec::new();
        let mut at = 0;
        for (h, (fields, checksum, checksum_at)) in shapes.iter().enumerate() {
            let mut def = HeaderDef {
                name: format!("h{h}"),
                len_bytes: 0,
                fields: Vec::new(),
                presence: table.register(&format!("hdr.h{h}.$valid"), 1).unwrap(),
                checksum_at: None,
                bitmap_bit: h as u8,
            };
            let mut bit = 0u16;
            let filler = (8 - fields.iter().map(|f| usize::from(f.0)).sum::<usize>() % 8) % 8;
            for (i, &(bits, slack)) in fields.iter().chain(&[(filler as u8, 0)]).enumerate() {
                if bits == 0 {
                    continue;
                }
                let wide = bits.saturating_add(slack).min(64);
                let field = table.register(&format!("hdr.h{h}.f{i}"), wide).unwrap();
                def.fields.push(HeaderField { field, bit_offset: bit, bits });
                bit += u16::from(bits);
            }
            def.len_bytes = usize::from(bit / 8);
            if *checksum && def.len_bytes >= 2 {
                def.checksum_at = Some(usize::from(*checksum_at) % (def.len_bytes - 1));
            }
            starts.push(at);
            at += def.len_bytes;
            p.add_header(def);
        }
        starts.push(at);
        for h in 0..shapes.len() {
            let next = if h + 1 < shapes.len() { NextState::State(h + 1) } else { NextState::Accept };
            p.add_state(ParseState {
                header: HeaderTypeId(h),
                select: None,
                transitions: vec![],
                default: next,
            });
        }
        let mut order: Vec<usize> = (0..shapes.len()).collect();
        order.sort_by_key(|h| emit_keys[*h]);
        p.set_emit_order(order.into_iter().map(HeaderTypeId).collect());
        if ovr.0 {
            let def = &p.headers[usize::from(ovr.1) % shapes.len()];
            let field = def.fields[usize::from(ovr.2) % def.fields.len()].field;
            let from = table.register("meta.override", 64).unwrap();
            p.set_deparse_override(field, from);
        }
        p.validate().unwrap();
        (p, starts)
    }

    proptest! {
        #[test]
        fn compiled_programs_match_the_bit_level_reference(
            shapes in prop::collection::vec(arb_header(), 1..5),
            emit_keys in prop::collection::vec(any::<u16>(), 4..5),
            ovr in (any::<bool>(), any::<u16>(), any::<u16>()),
            bytes in prop::collection::vec(any::<u8>(), 320..321),
            payload_len in 0usize..24,
            values in prop::collection::vec(any::<u64>(), 64..65),
        ) {
            let mut table = FieldTable::new();
            let (p, starts) = build_layout(&shapes, &emit_keys, ovr, &mut table);
            let headers_len = *starts.last().unwrap();
            let frame = &bytes[..headers_len + payload_len];
            let payload = &frame[headers_len..];

            // parse ≡ extract_bits, field by field.
            let mut got = Phv::new(&table);
            let r = p.parse(&table, frame, &mut got, false).unwrap();
            let mut want = Phv::new(&table);
            for (def, &at) in p.headers.iter().zip(&starts) {
                for hf in &def.fields {
                    let v = extract_bits(&frame[at..at + def.len_bytes], hf.bit_offset, hf.bits);
                    want.set(&table, hf.field, v);
                }
                want.set(&table, def.presence, 1);
            }
            let intr = table.intrinsics();
            want.set(&table, intr.parse_bitmap, (1 << shapes.len()) - 1);
            want.set(&table, intr.pkt_len, frame.len() as u64);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(r.payload_offset, headers_len);
            prop_assert_eq!(u64::from(r.bitmap), (1 << shapes.len()) - 1);
            if headers_len > 0 {
                let cut = &frame[..headers_len - 1];
                let mut scratch = Phv::new(&table);
                prop_assert!(matches!(
                    p.parse(&table, cut, &mut scratch, false),
                    Err(SimError::ParserReject)
                ));
            }

            // deparse ≡ deposit_bits, over a PHV with every field random:
            // presence bits, override source and values wider than the
            // header field included. The buffer arrives dirty.
            let mut phv = Phv::new(&table);
            for i in 0..table.len() {
                phv.set(&table, FieldId(i as u16), values[i % values.len()]);
            }
            let mut out = vec![0xA5; 7];
            p.deparse_into(&table, &phv, payload, &mut out);
            prop_assert_eq!(&out, &reference_deparse(&p, &phv, payload));

            // parse ∘ deparse: what was parsed deparses to the frame it came
            // from, headers in emit order, checksum slots recomputed.
            if let Some((field, from)) = p.deparse_overrides.first() {
                got.set(&table, *from, got.get(*field));
            }
            let mut expect = Vec::new();
            for id in &p.emit_order {
                let def = &p.headers[id.0];
                let mut hdr = frame[starts[id.0]..starts[id.0 + 1]].to_vec();
                if let Some(at) = def.checksum_at {
                    fill_checksum(&mut hdr, at);
                }
                expect.extend_from_slice(&hdr);
            }
            expect.extend_from_slice(payload);
            p.deparse_into(&table, &got, payload, &mut out);
            prop_assert_eq!(&out, &expect);
        }
    }
}
