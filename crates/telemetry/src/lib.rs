//! Deterministic metrics for the simulator and the real-socket runtime.
//!
//! A hand-rolled metric registry — u64 counters, u64 gauges, and
//! fixed-bucket log2 histograms — with interned `&'static str` keys and
//! zero allocation on the hot path after registration. Snapshots are
//! sliced by *sim time* (`Snapshot { tick, .. }`), never wall clocks, so
//! two identical runs emit byte-identical telemetry. The only wall-clock
//! telemetry in the workspace sits at the node runtime's pacer boundary,
//! where real sockets already make wall time part of the contract.
//!
//! The crate deliberately has no dependencies: the registry is shared by
//! `crates/experiments` (DES runs, `repro run --metrics`) and
//! `crates/node` (live cluster introspection), and nothing here may pull
//! an allocator-hungry or clock-reading crate into the sim path.
//!
//! Determinism contract: the mutators (`counter_add`, `counter_set_total`,
//! `gauge_set`, `hist_observe`, `hist_set`) return `()`, so a call can only
//! sit in *statement position* — its result can never feed an RNG draw or
//! an event-ordering decision.

use std::fmt::Write as _;
use std::io::{self, Write};

/// Number of log2 buckets: values up to `2^63` land in bucket 63.
pub const LOG2_BUCKETS: usize = 64;

/// Handle for a registered counter. Cheap to copy; valid only for the
/// [`Registry`] that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle for a registered gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Handle for a registered log2 histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistId(u32);

/// Fixed-bucket base-2 histogram: bucket `b` counts values `v` with
/// `floor(log2(v)) + 1 == b` (zero lands in bucket 0). Merging across
/// shards is element-wise addition, so a fold over shard snapshots in a
/// fixed order is associative and reproducible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Log2Histogram {
    pub count: u64,
    pub sum: u64,
    pub buckets: [u64; LOG2_BUCKETS],
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            count: 0,
            sum: 0,
            buckets: [0; LOG2_BUCKETS],
        }
    }
}

/// Bucket index for a value: 0 for 0, else `64 − leading_zeros(v)`,
/// capped at 63.
#[inline]
pub fn log2_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(LOG2_BUCKETS - 1)
    }
}

impl Log2Histogram {
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.buckets[log2_bucket(v)] += 1;
    }

    /// Element-wise accumulate (saturating, so the merge stays total).
    pub fn merge(&mut self, other: &Log2Histogram) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
    }
}

/// The metric registry. Registration interns a `&'static str` key and
/// returns a typed index; after registration every mutation is a bare
/// array write — no allocation, no hashing, no locks.
#[derive(Default)]
pub struct Registry {
    counter_names: Vec<&'static str>,
    counters: Vec<u64>,
    gauge_names: Vec<&'static str>,
    gauges: Vec<u64>,
    hist_names: Vec<&'static str>,
    hists: Vec<Log2Histogram>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or re-resolves) a counter by name.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        if let Some(i) = self.counter_names.iter().position(|n| *n == name) {
            return CounterId(i as u32);
        }
        self.counter_names.push(name);
        self.counters.push(0);
        CounterId((self.counter_names.len() - 1) as u32)
    }

    /// Registers (or re-resolves) a gauge by name.
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        if let Some(i) = self.gauge_names.iter().position(|n| *n == name) {
            return GaugeId(i as u32);
        }
        self.gauge_names.push(name);
        self.gauges.push(0);
        GaugeId((self.gauge_names.len() - 1) as u32)
    }

    /// Registers (or re-resolves) a log2 histogram by name.
    pub fn histogram(&mut self, name: &'static str) -> HistId {
        if let Some(i) = self.hist_names.iter().position(|n| *n == name) {
            return HistId(i as u32);
        }
        self.hist_names.push(name);
        self.hists.push(Log2Histogram::default());
        HistId((self.hist_names.len() - 1) as u32)
    }

    #[inline]
    pub fn counter_add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0 as usize] += n;
    }

    /// Raises a monotone counter to a cumulative `total` sampled from an
    /// existing source (net/engine/overlay accounting), so snapshot-time
    /// sampling needs no shadow state.
    pub fn counter_set_total(&mut self, id: CounterId, total: u64) {
        let c = &mut self.counters[id.0 as usize];
        *c = (*c).max(total);
    }

    #[inline]
    pub fn gauge_set(&mut self, id: GaugeId, v: u64) {
        self.gauges[id.0 as usize] = v;
    }

    #[inline]
    pub fn hist_observe(&mut self, id: HistId, v: u64) {
        self.hists[id.0 as usize].observe(v);
    }

    /// Replaces a histogram with one accumulated elsewhere (per event
    /// core), for sampling at snapshot time.
    pub fn hist_set(&mut self, id: HistId, h: Log2Histogram) {
        self.hists[id.0 as usize] = h;
    }

    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize]
    }

    pub fn gauge_value(&self, id: GaugeId) -> u64 {
        self.gauges[id.0 as usize]
    }

    /// Captures every registered metric at sim tick `tick`, in
    /// registration order (deterministic across identical runs).
    pub fn snapshot(&self, tick: u64) -> Snapshot {
        Snapshot {
            tick,
            series: String::new(),
            counters: self
                .counter_names
                .iter()
                .zip(self.counters.iter())
                .map(|(n, v)| (n.to_string(), *v))
                .collect(),
            gauges: self
                .gauge_names
                .iter()
                .zip(self.gauges.iter())
                .map(|(n, v)| (n.to_string(), *v))
                .collect(),
            hists: self
                .hist_names
                .iter()
                .zip(self.hists.iter())
                .map(|(n, h)| (n.to_string(), h.clone()))
                .collect(),
        }
    }
}

/// One sim-time-sliced telemetry slice: every registered metric, in
/// registration order. `series` labels the run (protocol class, sweep
/// point, or `cluster` for merged shard telemetry); empty means unlabeled.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    pub tick: u64,
    pub series: String,
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, u64)>,
    pub hists: Vec<(String, Log2Histogram)>,
}

impl Snapshot {
    /// Folds `other` into `self`: counters, gauges, and histogram buckets
    /// accumulate element-wise. The metric sets must match name-for-name
    /// in order (shards of one cluster register identically), which makes
    /// a fold over shards in fixed index order associative.
    pub fn merge_from(&mut self, other: &Snapshot) -> Result<(), String> {
        let schema_err = |kind: &str, a: &str, b: &str| {
            Err(format!(
                "snapshot merge: {kind} mismatch ({a:?} vs {b:?}) — shards must register \
                 identical metric sets"
            ))
        };
        if self.counters.len() != other.counters.len()
            || self.gauges.len() != other.gauges.len()
            || self.hists.len() != other.hists.len()
        {
            return Err("snapshot merge: metric count mismatch between shards".to_string());
        }
        for ((an, av), (bn, bv)) in self.counters.iter_mut().zip(other.counters.iter()) {
            if an != bn {
                return schema_err("counter", an, bn);
            }
            *av = av.saturating_add(*bv);
        }
        for ((an, av), (bn, bv)) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            if an != bn {
                return schema_err("gauge", an, bn);
            }
            *av = av.saturating_add(*bv);
        }
        for ((an, ah), (bn, bh)) in self.hists.iter_mut().zip(other.hists.iter()) {
            if an != bn {
                return schema_err("histogram", an, bn);
            }
            ah.merge(bh);
        }
        Ok(())
    }

    /// Renders the snapshot as one JSONL line (no trailing newline),
    /// following the workspace sink conventions (`"event"` discriminator
    /// first). Metric order is registration order, so identical runs emit
    /// identical bytes.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"event\":\"metrics\",\"series\":\"");
        json_escape_into(&mut s, &self.series);
        let _ = write!(s, "\",\"tick\":{},\"counters\":{{", self.tick);
        for (i, (n, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            json_escape_into(&mut s, n);
            let _ = write!(s, "\":{v}");
        }
        s.push_str("},\"gauges\":{");
        for (i, (n, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            json_escape_into(&mut s, n);
            let _ = write!(s, "\":{v}");
        }
        s.push_str("},\"hists\":{");
        for (i, (n, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            json_escape_into(&mut s, n);
            let _ = write!(
                s,
                "\":{{\"count\":{},\"sum\":{},\"buckets\":[",
                h.count, h.sum
            );
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{b}");
            }
            s.push_str("]}");
        }
        s.push_str("}}");
        s
    }

    /// Strict inverse of [`Snapshot::to_jsonl`]: parses exactly the shape
    /// that encoder emits and rejects everything else, so
    /// `decode(encode(s)) == s` is a checkable property and a corrupted
    /// metrics file fails loudly instead of skewing a merge.
    pub fn from_jsonl(line: &str) -> Result<Snapshot, String> {
        let mut p = Parser::new(line.trim_end_matches('\n'));
        p.expect("{\"event\":\"metrics\",\"series\":")?;
        let series = p.string()?;
        p.expect(",\"tick\":")?;
        let tick = p.u64()?;
        p.expect(",\"counters\":{")?;
        let counters = p.u64_map()?;
        p.expect(",\"gauges\":{")?;
        let gauges = p.u64_map()?;
        p.expect(",\"hists\":{")?;
        let mut hists = Vec::new();
        if !p.eat('}') {
            loop {
                let name = p.string()?;
                p.expect(":{\"count\":")?;
                let count = p.u64()?;
                p.expect(",\"sum\":")?;
                let sum = p.u64()?;
                p.expect(",\"buckets\":[")?;
                let mut buckets = [0u64; LOG2_BUCKETS];
                for (j, slot) in buckets.iter_mut().enumerate() {
                    if j > 0 {
                        p.expect(",")?;
                    }
                    *slot = p.u64()?;
                }
                p.expect("]}")?;
                hists.push((
                    name,
                    Log2Histogram {
                        count,
                        sum,
                        buckets,
                    },
                ));
                if !p.eat(',') {
                    break;
                }
            }
            p.expect("}")?;
        }
        p.expect("}")?;
        p.finish()?;
        Ok(Snapshot {
            tick,
            series,
            counters,
            gauges,
            hists,
        })
    }
}

/// Appends `s` to `out` escaped for a JSON string literal: quote,
/// backslash and control characters (the subset the workspace emits needs
/// no surrogate handling). The one escaper of every JSONL writer in the
/// workspace.
pub fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Minimal strict cursor over a snapshot line.
struct Parser<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser { s, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.s[self.pos..]
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        if self.rest().starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!(
                "metrics line: expected {lit:?} at byte {}, found {:?}…",
                self.pos,
                &self.rest()[..self.rest().len().min(24)]
            ))
        }
    }

    fn eat(&mut self, c: char) -> bool {
        if self.rest().starts_with(c) {
            self.pos += c.len_utf8();
            true
        } else {
            false
        }
    }

    fn u64(&mut self) -> Result<u64, String> {
        let digits: usize = self.rest().bytes().take_while(u8::is_ascii_digit).count();
        if digits == 0 {
            return Err(format!(
                "metrics line: expected integer at byte {}",
                self.pos
            ));
        }
        let v = self.rest()[..digits]
            .parse::<u64>()
            .map_err(|e| format!("metrics line: bad integer at byte {}: {e}", self.pos))?;
        self.pos += digits;
        Ok(v)
    }

    /// A quoted JSON string with the escape set the encoder produces.
    fn string(&mut self) -> Result<String, String> {
        if !self.eat('"') {
            return Err(format!(
                "metrics line: expected string at byte {}",
                self.pos
            ));
        }
        let mut out = String::new();
        let mut chars = self.rest().char_indices();
        loop {
            let Some((i, c)) = chars.next() else {
                return Err("metrics line: unterminated string".to_string());
            };
            match c {
                '"' => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((j, 'u')) => {
                        let hex = self
                            .rest()
                            .get(j + 1..j + 5)
                            .ok_or("metrics line: truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "metrics line: bad \\u escape")?;
                        out.push(
                            char::from_u32(code).ok_or("metrics line: invalid \\u code point")?,
                        );
                        // Skip the 4 hex digits.
                        for _ in 0..4 {
                            chars.next();
                        }
                    }
                    _ => return Err("metrics line: unknown escape".to_string()),
                },
                c => out.push(c),
            }
        }
    }

    /// `"name":123,...}` — the body of a counters/gauges object, after the
    /// opening brace has been consumed.
    fn u64_map(&mut self) -> Result<Vec<(String, u64)>, String> {
        let mut out = Vec::new();
        if self.eat('}') {
            return Ok(out);
        }
        loop {
            let name = self.string()?;
            self.expect(":")?;
            let v = self.u64()?;
            out.push((name, v));
            if !self.eat(',') {
                break;
            }
        }
        self.expect("}")?;
        Ok(out)
    }

    fn finish(&self) -> Result<(), String> {
        if self.rest().is_empty() {
            Ok(())
        } else {
            Err(format!(
                "metrics line: trailing bytes at {}: {:?}…",
                self.pos,
                &self.rest()[..self.rest().len().min(24)]
            ))
        }
    }
}

/// Writes interval snapshots as JSONL, following the workspace sink
/// conventions (one object per line, first-error latching).
pub struct TelemetrySink<W: Write> {
    w: W,
    written: u64,
    error: Option<io::Error>,
}

impl<W: Write> TelemetrySink<W> {
    pub fn new(w: W) -> Self {
        TelemetrySink {
            w,
            written: 0,
            error: None,
        }
    }

    /// Writes one snapshot line; after the first I/O error the sink goes
    /// quiet and [`TelemetrySink::error`] reports the latched failure.
    pub fn write(&mut self, snap: &Snapshot) {
        if self.error.is_some() {
            return;
        }
        let line = snap.to_jsonl();
        if let Err(e) = writeln!(self.w, "{line}") {
            self.error = Some(e);
            return;
        }
        self.written += 1;
    }

    pub fn lines_written(&self) -> u64 {
        self.written
    }

    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Flushes and returns the writer (first latched error wins).
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.w.flush()?;
        Ok(self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* — the tests' stand-in for a property-test
    /// generator, keeping the crate dependency-free.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    fn sample_snapshot(seed: u64, series: &str) -> Snapshot {
        let mut rng = Rng(seed | 1);
        let mut reg = Registry::new();
        let c1 = reg.counter("net.sent");
        let c2 = reg.counter("net.dropped");
        let g1 = reg.gauge("overlay.alive");
        let h1 = reg.histogram("engine.batch_len");
        for _ in 0..64 {
            reg.counter_add(c1, rng.next() % 1000);
            reg.counter_add(c2, rng.next() % 10);
            reg.gauge_set(g1, rng.next() % 100_000);
            reg.hist_observe(h1, rng.next() % (1 << 20));
        }
        let mut s = reg.snapshot(rng.next() % 10_000);
        s.series = series.to_string();
        s
    }

    #[test]
    fn log2_bucket_edges() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(1023), 10);
        assert_eq!(log2_bucket(1024), 11);
        assert_eq!(log2_bucket(u64::MAX), 63);
    }

    #[test]
    fn registry_interns_and_dedupes() {
        let mut reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        assert_eq!(a, b);
        let g = reg.gauge("x"); // separate namespace from counters
        reg.counter_add(a, 3);
        reg.gauge_set(g, 9);
        let snap = reg.snapshot(7);
        assert_eq!(snap.counters, vec![("x".to_string(), 3)]);
        assert_eq!(snap.gauges, vec![("x".to_string(), 9)]);
        assert_eq!(snap.tick, 7);
    }

    #[test]
    fn snapshot_encode_decode_is_identity() {
        // Property: decode ∘ encode == id, across randomized registries
        // and awkward series names.
        for seed in 1..=40u64 {
            let snap = sample_snapshot(seed, "agg\"≈\\n\tclass");
            let line = snap.to_jsonl();
            let back = Snapshot::from_jsonl(&line).expect("decodes");
            assert_eq!(back, snap, "seed {seed}");
            assert_eq!(back.to_jsonl(), line, "re-encode seed {seed}");
        }
        // Empty registry round-trips too.
        let empty = Registry::new().snapshot(0);
        assert_eq!(Snapshot::from_jsonl(&empty.to_jsonl()).unwrap(), empty);
    }

    #[test]
    fn decoder_is_strict() {
        let good = sample_snapshot(3, "s").to_jsonl();
        assert!(
            Snapshot::from_jsonl(&format!("{good} ")).is_err(),
            "trailing bytes"
        );
        assert!(
            Snapshot::from_jsonl(&good[..good.len() - 1]).is_err(),
            "truncated"
        );
        assert!(
            Snapshot::from_jsonl(&good.replace("\"event\":\"metrics\"", "\"event\":\"meta\""))
                .is_err(),
            "wrong event"
        );
        assert!(
            Snapshot::from_jsonl(&good.replace("\"tick\":", "\"tick\": ")).is_err(),
            "whitespace variants are not canonical"
        );
    }

    #[test]
    fn histogram_merge_is_associative_and_order_fixed() {
        // Property: folding shard histograms in a fixed order is
        // associative — (a⊕b)⊕c == a⊕(b⊕c) — and element-wise addition
        // is commutative, so any bracketing of the fixed shard-index fold
        // agrees.
        for seed in 1..=25u64 {
            let mut rng = Rng(seed);
            let mut shards: Vec<Log2Histogram> = Vec::new();
            for _ in 0..3 {
                let mut h = Log2Histogram::default();
                for _ in 0..200 {
                    h.observe(rng.next() % (1 << 32));
                }
                shards.push(h);
            }
            let (a, b, c) = (&shards[0], &shards[1], &shards[2]);
            let mut left = a.clone();
            left.merge(b);
            left.merge(c);
            let mut bc = b.clone();
            bc.merge(c);
            let mut right = a.clone();
            right.merge(&bc);
            assert_eq!(left, right, "associativity, seed {seed}");
            let mut ba = b.clone();
            ba.merge(a);
            let mut ab = a.clone();
            ab.merge(b);
            assert_eq!(ab, ba, "element-wise commutativity, seed {seed}");
            assert_eq!(ab.count, a.count + b.count);
        }
    }

    #[test]
    fn snapshot_merge_is_associative_across_shards() {
        let shards: Vec<Snapshot> = (1..=3).map(|s| sample_snapshot(s, "shard")).collect();
        let mut left = shards[0].clone();
        left.merge_from(&shards[1]).unwrap();
        left.merge_from(&shards[2]).unwrap();
        let mut bc = shards[1].clone();
        bc.merge_from(&shards[2]).unwrap();
        let mut right = shards[0].clone();
        right.merge_from(&bc).unwrap();
        assert_eq!(left, right);
    }

    #[test]
    fn snapshot_merge_rejects_schema_mismatch() {
        let a = sample_snapshot(1, "a");
        let mut reg = Registry::new();
        reg.counter("other.name");
        let b = reg.snapshot(0);
        assert!(a.clone().merge_from(&b).is_err());
    }

    #[test]
    fn sink_writes_one_line_per_snapshot() {
        let mut sink = TelemetrySink::new(Vec::new());
        let a = sample_snapshot(1, "x");
        let b = sample_snapshot(2, "x");
        sink.write(&a);
        sink.write(&b);
        assert_eq!(sink.lines_written(), 2);
        let bytes = sink.finish().expect("no io error");
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(Snapshot::from_jsonl(lines[0]).unwrap(), a);
        assert_eq!(Snapshot::from_jsonl(lines[1]).unwrap(), b);
    }
}
