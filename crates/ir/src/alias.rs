//! Exact memory disambiguation over address streams.
//!
//! Two memory sites *alias* when their byte ranges intersect: `[a(i),
//! a(i) + wa)` and `[b(j), b(j) + wb)`, with addresses exactly what
//! [`AddressStream::addr_at`] yields (wrapping `u64`) and ranges compared
//! without wrapping, so a range at the top of the address space does not
//! reach back to address 0. This module answers the two questions the
//! toolchain asks, over the whole trip and never by sampling:
//!
//! * [`overlap_at`]: is there an iteration `i` with `i + d < trip` at
//!   which `a(i)` and `b(i + d)` touch a common byte? Dependence
//!   discovery asks it once per ordered pair of sites and distance.
//! * [`overlap_any`]: do any two iterations `i, j < trip` touch a common
//!   byte? Code specialization (paper §6) asks it once per memory edge,
//!   and the simulator's hazard precheck once per cross-cluster
//!   (store, load) pair, with both widths padded by one byte.
//!
//! Ranges intersect exactly when `b − a` is one of the at most 31
//! offsets `1 − wb ..= wa − 1` the widths allow, so each question is a
//! small number of exact subproblems:
//!
//! * affine × affine: a linear congruence modulo 2^64 per offset, solved
//!   with the inverse of the stride difference's odd part. For
//!   [`overlap_any`] the congruence has two unknowns; its solutions are
//!   counted with a floor sum, so a stream that wraps inside the trip
//!   is decided exactly. Solutions that only exist modulo 2^64 (a range
//!   meeting another across the top of the address space) are counted
//!   and subtracted.
//! * indexed × affine: the same congruence once per table entry,
//!   restricted to the iterations that read that entry.
//! * indexed × indexed: for [`overlap_at`], a walk over
//!   `min(trip − d, lcm(la, lb))` phases with two wrapping cursors; for
//!   [`overlap_any`], a sort-and-sweep of the entries the trip reads.
//!
//! Every cost is bounded by the stream descriptions, never by the trip.

use crate::kernel::AddressStream;
use crate::op::Width;

/// The size of the address space, 2^64.
const SPACE: u128 = 1 << 64;

/// One memory site as the oracle sees it: its address stream and access
/// width, with an indexed table's address bounds computed once so a
/// pass that asks many questions about the same site pays for them once.
#[derive(Debug, Clone, Copy)]
pub struct Access<'s> {
    shape: Shape<'s>,
    width: u64,
}

#[derive(Debug, Clone, Copy)]
enum Shape<'s> {
    Affine {
        base: u64,
        stride: u64,
    },
    Indexed {
        table: &'s [u64],
        /// `[lowest entry, highest entry + width)`: every byte the table
        /// can touch, whatever the trip.
        lo: u128,
        hi: u128,
    },
}

impl<'s> Access<'s> {
    /// A site accessing `width` bytes at the addresses of `stream`.
    ///
    /// # Panics
    ///
    /// Panics if an indexed `stream` has an empty table.
    #[must_use]
    pub fn new(stream: &'s AddressStream, width: Width) -> Self {
        Access::with_bytes(stream, width.bytes())
    }

    /// A site accessing `width` bytes at the addresses of `stream`, for a
    /// caller that widens an access beyond the machine's own widths.
    ///
    /// # Panics
    ///
    /// Panics if an indexed `stream` has an empty table.
    #[must_use]
    pub fn with_bytes(stream: &'s AddressStream, width: u64) -> Self {
        debug_assert!((1..=16).contains(&width), "access widths are 1 to 16 bytes");
        let shape = match stream {
            AddressStream::Affine { base, stride } => Shape::Affine {
                base: *base,
                stride: *stride as u64,
            },
            AddressStream::Indexed(table) => {
                let lo = table
                    .iter()
                    .min()
                    .expect("indexed address stream must not be empty");
                let hi = table
                    .iter()
                    .max()
                    .expect("indexed address stream must not be empty");
                Shape::Indexed {
                    table,
                    lo: u128::from(*lo),
                    hi: u128::from(*hi) + u128::from(width),
                }
            }
        };
        Access { shape, width }
    }
}

/// Whether some iteration `i` with `i + d < trip` has `a` at iteration
/// `i` and `b` at iteration `i + d` touching a common byte.
#[must_use]
pub fn overlap_at(a: &Access<'_>, b: &Access<'_>, trip: u64, d: u64) -> bool {
    let Some(n) = trip.checked_sub(d).filter(|&n| n > 0) else {
        return false;
    };
    let (wa, wb) = (a.width, b.width);
    match (a.shape, b.shape) {
        (
            Shape::Affine {
                base: ab,
                stride: sa,
            },
            Shape::Affine {
                base: bb,
                stride: sb,
            },
        ) => affine_at(ab, sa, wa, bb.wrapping_add(sb.wrapping_mul(d)), sb, wb, n),
        (Shape::Indexed { table, .. }, Shape::Affine { base, stride }) => table_meets_affine(
            table,
            0,
            wa,
            base.wrapping_add(stride.wrapping_mul(d)),
            stride,
            wb,
            n,
        ),
        (Shape::Affine { base, stride }, Shape::Indexed { table, .. }) => {
            table_meets_affine(table, d, wb, base, stride, wa, n)
        }
        (
            Shape::Indexed {
                table: ta,
                lo: lo_a,
                hi: hi_a,
            },
            Shape::Indexed {
                table: tb,
                lo: lo_b,
                hi: hi_b,
            },
        ) => lo_a < hi_b && lo_b < hi_a && tables_at(ta, wa, tb, wb, n, d),
    }
}

/// Whether any iterations `i, j < trip` have `a` at `i` and `b` at `j`
/// touching a common byte.
#[must_use]
pub fn overlap_any(a: &Access<'_>, b: &Access<'_>, trip: u64) -> bool {
    if trip == 0 {
        return false;
    }
    let (wa, wb) = (a.width, b.width);
    match (a.shape, b.shape) {
        (
            Shape::Affine {
                base: ab,
                stride: sa,
            },
            Shape::Affine {
                base: bb,
                stride: sb,
            },
        ) => affine_any(ab, sa, wa, bb, sb, wb, trip),
        (Shape::Indexed { table, .. }, Shape::Affine { base, stride }) => {
            table_reaches_affine(table, wa, base, stride, wb, trip)
        }
        (Shape::Affine { base, stride }, Shape::Indexed { table, .. }) => {
            table_reaches_affine(table, wb, base, stride, wa, trip)
        }
        (
            Shape::Indexed {
                table: ta,
                lo: lo_a,
                hi: hi_a,
            },
            Shape::Indexed {
                table: tb,
                lo: lo_b,
                hi: hi_b,
            },
        ) => {
            lo_a < hi_b && lo_b < hi_a && entries_meet(read_by(ta, trip), wa, read_by(tb, trip), wb)
        }
    }
}

/// The entries of `table` that iterations `0..n` read; later iterations
/// repeat them.
fn read_by(table: &[u64], n: u64) -> &[u64] {
    &table[..usize::try_from(n).map_or(table.len(), |n| n.min(table.len()))]
}

/// Whether `[x, x + wx)` and `[y, y + wy)` intersect, without wrapping.
fn bytes_meet(x: u64, wx: u64, y: u64, wy: u64) -> bool {
    let (x, y) = (u128::from(x), u128::from(y));
    x < y + u128::from(wy) && y < x + u128::from(wx)
}

/// The offsets `k = y − x` at which `[x, x + wx)` and `[y, y + wy)`
/// intersect.
fn offsets(wx: u64, wy: u64) -> std::ops::RangeInclusive<i64> {
    1 - wy as i64..=wx as i64 - 1
}

/// The inverse of odd `x` modulo 2^64 (Newton's iteration doubles the
/// correct low bits each step, from 3).
fn inv_odd(x: u64) -> u64 {
    let mut y = x;
    for _ in 0..5 {
        y = y.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(y)));
    }
    y
}

/// The solutions `t ≥ 0` of `e·t ≡ r (mod 2^64)` as `(t0, period)`:
/// every `t ≡ t0 (mod period)`, with `t0 < period` and the period a
/// power of two up to 2^64.
fn solve(e: u64, r: u64) -> Option<(u128, u128)> {
    if e == 0 {
        return (r == 0).then_some((0, 1));
    }
    let v = e.trailing_zeros();
    if r.trailing_zeros() < v {
        return None;
    }
    let period = SPACE >> v;
    let t0 = u128::from((r >> v).wrapping_mul(inv_odd(e >> v))) % period;
    Some((t0, period))
}

/// How many `t < n` have `t ≡ t0 (mod period)`, for `t0 < period`.
fn class_count(n: u128, (t0, period): (u128, u128)) -> u128 {
    if t0 < n {
        (n - 1 - t0) / period + 1
    } else {
        0
    }
}

/// The intersection of two congruence classes whose moduli are powers
/// of two.
fn meet_classes(x: (u128, u128), y: (u128, u128)) -> Option<(u128, u128)> {
    let (small, big) = if x.1 <= y.1 { (x, y) } else { (y, x) };
    (big.0 % small.1 == small.0).then_some(big)
}

/// The values `x` at which `x + k` leaves `[0, 2^64)`: a solution of
/// `y ≡ x + k (mod 2^64)` there meets nothing, since ranges do not wrap.
fn wrapped_lows(k: i64) -> impl Iterator<Item = u64> {
    let n = k.unsigned_abs();
    let start = if k > 0 { 0u64.wrapping_sub(n) } else { 0 };
    (0..n).map(move |i| start.wrapping_add(i))
}

/// Affine `a(i) = ab + sa·i` against affine `b(i) = bb + sb·i` over the
/// same iterations `i < n`.
fn affine_at(ab: u64, sa: u64, wa: u64, bb: u64, sb: u64, wb: u64, n: u64) -> bool {
    let n = u128::from(n);
    let e = sb.wrapping_sub(sa);
    offsets(wa, wb).any(|k| {
        // b(i) − a(i) ≡ k, i.e. (sb − sa)·i ≡ k + ab − bb.
        let Some(hits) = solve(e, (k as u64).wrapping_add(ab).wrapping_sub(bb)) else {
            return false;
        };
        let all = class_count(n, hits);
        // Iterations where a(i) + k wraps satisfy the congruence only.
        let wrapped: u128 = wrapped_lows(k)
            .filter_map(|x| solve(sa, x.wrapping_sub(ab)))
            .filter_map(|at_x| meet_classes(hits, at_x))
            .map(|c| class_count(n, c))
            .sum();
        all > wrapped
    })
}

/// `table[(i + rot) mod len]` (width `wt`) against the affine
/// `base + stride·i` (width `wv`) over the iterations `i < n`.
fn table_meets_affine(
    table: &[u64],
    rot: u64,
    wt: u64,
    base: u64,
    stride: u64,
    wv: u64,
    n: u64,
) -> bool {
    let len = table.len() as u64;
    let step = stride.wrapping_mul(len);
    // Entry p is read at iterations i ≡ p − rot (mod len), i.e. from
    // `first` on, every `len` iterations.
    (0..len).any(|p| {
        let first = (p + len - rot % len) % len;
        if first >= n {
            return false;
        }
        let reads = u128::from((n - 1 - first) / len + 1);
        let at_first = base.wrapping_add(stride.wrapping_mul(first));
        let x = table[p as usize];
        offsets(wt, wv).any(|k| {
            let Some(y) = x.checked_add_signed(k) else {
                return false;
            };
            solve(step, y.wrapping_sub(at_first)).is_some_and(|(t0, _)| t0 < reads)
        })
    })
}

/// The first `min(n, len)` entries of `table` (width `wt`) against the
/// affine `base + stride·j` (width `wv`) at any `j < n`.
fn table_reaches_affine(table: &[u64], wt: u64, base: u64, stride: u64, wv: u64, n: u64) -> bool {
    read_by(table, n).iter().any(|&x| {
        offsets(wt, wv).any(|k| {
            let Some(y) = x.checked_add_signed(k) else {
                return false;
            };
            solve(stride, y.wrapping_sub(base)).is_some_and(|(j0, _)| j0 < u128::from(n))
        })
    })
}

/// Affine `a(i) = ab + sa·i` against affine `b(j) = bb + sb·j` at any
/// `i, j < n`.
fn affine_any(ab: u64, sa: u64, wa: u64, bb: u64, sb: u64, wb: u64, n: u64) -> bool {
    // Solve for the unknown whose stride has fewer trailing zeros; the
    // question is symmetric in the two sites.
    if sa.trailing_zeros() > sb.trailing_zeros() {
        return affine_any(bb, sb, wb, ab, sa, wa, n);
    }
    if sa == 0 {
        return bytes_meet(ab, wa, bb, wb); // both streams are constant
    }
    let v = sa.trailing_zeros();
    let period = SPACE >> v; // a repeats with this period
    let inv = u128::from(inv_odd(sa >> v));
    let reach = u128::from(n).min(period); // distinct iterations of a
    let n = u128::from(n);
    // a(i) = b(j) − k  ⇔  sa·i ≡ sb·j + (bb − ab − k): for each j the
    // one class of i modulo `period` is c0 + c1·j.
    let c1 = (u128::from(sb >> v) * inv) % period;
    offsets(wa, wb).any(|k| {
        let t = bb.wrapping_sub(ab).wrapping_sub(k as u64);
        if t.trailing_zeros() < v {
            return false;
        }
        let c0 = (u128::from(t >> v) * inv) % period;
        // The j whose class of i holds an iteration below n.
        let hits = count_below(n, period, c0, c1, reach);
        if hits == 0 {
            return false;
        }
        // Subtract the j whose b(j) only meets a(i) + k modulo 2^64.
        let wrapped: u128 = wrapped_lows(k)
            .map(|x| x.wrapping_add(k as u64))
            .filter_map(|y| solve(sb, y.wrapping_sub(bb)))
            .map(|(j0, step)| {
                let js = class_count(n, (j0, step));
                count_below(
                    js,
                    period,
                    (c0 + c1 * j0) % period,
                    (c1 * step) % period,
                    reach,
                )
            })
            .sum();
        hits > wrapped
    })
}

/// How many `t < n` have `(c0 + c1·t) mod m < limit`, for `c0, c1 < m`
/// and `m ≤ 2^64`.
fn count_below(n: u128, m: u128, c0: u128, c1: u128, limit: u128) -> u128 {
    if limit >= m {
        return n;
    }
    // [x mod m < limit] = ⌊x/m⌋ − ⌊(x + m − limit)/m⌋ + 1. The floor
    // sums may wrap; their difference is the small true count.
    n.wrapping_add(floor_sum(n, m, c1, c0))
        .wrapping_sub(floor_sum(n, m, c1, c0 + m - limit))
}

/// `Σ_{t<n} ⌊(a·t + b)/m⌋` modulo 2^128, by the Euclid-like reduction;
/// O(log m) steps. Needs `n, m ≤ 2^64` and `a < m`, which keeps every
/// `a·n + b` below 2^128.
fn floor_sum(mut n: u128, mut m: u128, mut a: u128, mut b: u128) -> u128 {
    let mut sum: u128 = 0;
    loop {
        if a >= m {
            let pairs = if n.is_multiple_of(2) {
                (n / 2).wrapping_mul(n.wrapping_sub(1))
            } else {
                n * ((n - 1) / 2)
            };
            sum = sum.wrapping_add(pairs.wrapping_mul(a / m));
            a %= m;
        }
        if b >= m {
            sum = sum.wrapping_add(n.wrapping_mul(b / m));
            b %= m;
        }
        let top = a * n + b;
        if top < m {
            return sum;
        }
        n = top / m;
        b = top % m;
        std::mem::swap(&mut m, &mut a);
    }
}

/// `ta[i mod la]` (width `wa`) against `tb[(i + d) mod lb]` (width `wb`)
/// over the iterations `i < n`. The phase pair repeats every
/// `lcm(la, lb)` iterations, so at most that many are walked. The
/// cursors advance in runs that end where one wraps, so each run
/// compares two contiguous slices without a branch or a division.
fn tables_at(ta: &[u64], wa: u64, tb: &[u64], wb: u64, n: u64, d: u64) -> bool {
    let (la, lb) = (ta.len() as u64, tb.len() as u64);
    let lcm = u128::from(la / gcd(la, lb)) * u128::from(lb);
    let (mut pa, mut pb) = (0, (d % lb) as usize);
    let mut left = u128::from(n).min(lcm) as usize;
    while left > 0 {
        let run = (ta.len() - pa).min(tb.len() - pb).min(left);
        let pairs = ta[pa..pa + run].iter().zip(&tb[pb..pb + run]);
        if pairs.fold(false, |hit, (&x, &y)| hit | bytes_meet(x, wa, y, wb)) {
            return true;
        }
        left -= run;
        pa += run;
        if pa == ta.len() {
            pa = 0;
        }
        pb += run;
        if pb == tb.len() {
            pb = 0;
        }
    }
    false
}

/// Whether some `x` of `a` (width `wa`) and `y` of `b` (width `wb`) have
/// intersecting byte ranges: both sides sorted, then swept.
fn entries_meet(a: &[u64], wa: u64, b: &[u64], wb: u64) -> bool {
    let (mut a, mut b) = (a.to_vec(), b.to_vec());
    a.sort_unstable();
    b.sort_unstable();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if u128::from(x) + u128::from(wa) <= u128::from(y) {
            i += 1;
        } else if u128::from(y) + u128::from(wb) <= u128::from(x) {
            j += 1;
        } else {
            return true;
        }
    }
    false
}

fn gcd(mut x: u64, mut y: u64) -> u64 {
    while y != 0 {
        (x, y) = (y, x % y);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// SplitMix64: a self-contained generator for the brute-force check.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A tiny stream living in a small window near 0, the middle or the
    /// top of the address space, so pairs alias often and some wrap.
    fn tiny_stream(rng: &mut Mix) -> AddressStream {
        let center = [48u64, 1 << 63, u64::MAX - 24][rng.below(3) as usize];
        let addr = |rng: &mut Mix| center.wrapping_add(rng.below(64)).wrapping_sub(32);
        if rng.below(2) == 0 {
            let stride = match rng.below(4) {
                0 => 0,
                1 => rng.below(19) as i64 - 9,
                2 => (rng.below(5) as i64 - 2) << 61, // wraps at once
                _ => rng.below(33) as i64 - 16,
            };
            AddressStream::Affine {
                base: addr(rng),
                stride,
            }
        } else {
            let len = 1 + rng.below(7) as usize; // lengths that do not divide 64
            AddressStream::Indexed((0..len).map(|_| addr(rng)).collect::<Vec<_>>().into())
        }
    }

    fn brute_at(a: &AddressStream, wa: u64, b: &AddressStream, wb: u64, n: u64, d: u64) -> bool {
        (0..n.saturating_sub(d)).any(|i| bytes_meet(a.addr_at(i), wa, b.addr_at(i + d), wb))
    }

    fn brute_any(a: &AddressStream, wa: u64, b: &AddressStream, wb: u64, n: u64) -> bool {
        (0..n).any(|i| (0..n).any(|j| bytes_meet(a.addr_at(i), wa, b.addr_at(j), wb)))
    }

    #[test]
    fn both_questions_match_whole_trip_enumeration() {
        let mut rng = Mix(0x5eed);
        let (mut at_hits, mut any_hits) = (0, 0);
        for case in 0..20_000 {
            let (a, b) = (tiny_stream(&mut rng), tiny_stream(&mut rng));
            let (wa, wb) = (1 + rng.below(9), 1 + rng.below(9));
            let n = 1 + rng.below(24); // shorter and longer than the tables
            let (xa, xb) = (Access::with_bytes(&a, wa), Access::with_bytes(&b, wb));
            for d in 0..=3 {
                let want = brute_at(&a, wa, &b, wb, n, d);
                assert_eq!(
                    overlap_at(&xa, &xb, n, d),
                    want,
                    "case {case}: {a:?} w{wa} vs {b:?} w{wb}, trip {n}, d {d}"
                );
                at_hits += usize::from(want);
            }
            let want = brute_any(&a, wa, &b, wb, n);
            assert_eq!(
                overlap_any(&xa, &xb, n),
                want,
                "case {case}: {a:?} w{wa} vs {b:?} w{wb}, trip {n}"
            );
            any_hits += usize::from(want);
        }
        // Both answers occur often, so neither side is vacuous.
        assert!(at_hits > 8_000 && any_hits > 3_000, "{at_hits} {any_hits}");
    }

    #[test]
    fn coprime_table_walks_match_whole_trip_enumeration() {
        let mut rng = Mix(7);
        for _ in 0..2_000 {
            let (la, lb) = (5 + rng.below(4) as usize, 9 + rng.below(4) as usize);
            let ta: Vec<u64> = (0..la).map(|_| 4 * rng.below(40)).collect();
            let tb: Vec<u64> = (0..lb).map(|_| 4 * rng.below(40) + rng.below(4)).collect();
            let (a, b) = (
                AddressStream::Indexed(ta.into()),
                AddressStream::Indexed(tb.into()),
            );
            let (xa, xb) = (Access::with_bytes(&a, 4), Access::with_bytes(&b, 2));
            // Trip 200 covers every phase pair (lcm ≤ 96), so the walk
            // stops at the lcm; the enumeration is the reference.
            for d in 0..=3 {
                assert_eq!(overlap_at(&xa, &xb, 200, d), brute_at(&a, 4, &b, 2, 200, d));
            }
        }
    }

    #[test]
    fn late_crossings_are_found() {
        // Unequal strides cross once, at iteration 1000.
        let a = AddressStream::Affine { base: 0, stride: 8 };
        let b = AddressStream::Affine {
            base: 4000,
            stride: 4,
        };
        let (xa, xb) = (Access::with_bytes(&a, 4), Access::with_bytes(&b, 4));
        assert!(!overlap_at(&xa, &xb, 1000, 0));
        assert!(overlap_at(&xa, &xb, 1001, 0));
        // Two tables that meet only on the second half of a 256 trip.
        let ta: Vec<u64> = (0..256).map(|i| 0x1000 + 4 * i).collect();
        let tb: Vec<u64> = (0..256)
            .map(|i| {
                if i < 128 {
                    0x8000 + 4 * i
                } else {
                    0x1000 + 4 * i
                }
            })
            .collect();
        let (a, b) = (
            AddressStream::Indexed(ta.into()),
            AddressStream::Indexed(tb.into()),
        );
        let (xa, xb) = (Access::with_bytes(&a, 4), Access::with_bytes(&b, 4));
        assert!(!overlap_at(&xa, &xb, 128, 0));
        assert!(overlap_at(&xa, &xb, 256, 0));
        assert!(!overlap_at(&xa, &xb, 256, 1));
    }

    #[test]
    fn a_range_at_the_top_does_not_wrap_to_zero() {
        let top = AddressStream::Affine {
            base: u64::MAX - 1,
            stride: 0,
        };
        let zero = AddressStream::Affine { base: 0, stride: 0 };
        let (xa, xb) = (Access::with_bytes(&top, 8), Access::with_bytes(&zero, 8));
        assert!(!overlap_at(&xa, &xb, 10, 0));
        assert!(!overlap_any(&xa, &xb, 10));
        assert!(overlap_any(&xa, &xa, 10));
    }

    #[test]
    fn cost_does_not_grow_with_the_trip() {
        let trip = 1u64 << 60;
        let streams = [
            AddressStream::Affine { base: 0, stride: 4 },
            AddressStream::Affine {
                base: u64::MAX - 3,
                stride: -12,
            },
            AddressStream::Affine {
                base: 1 << 40,
                stride: 0,
            },
            AddressStream::Indexed(Arc::from((0..61u64).map(|i| i * 7).collect::<Vec<_>>())),
            AddressStream::Indexed(Arc::from(
                (0..64u64).map(|i| (i * 4) << 50).collect::<Vec<_>>(),
            )),
        ];
        for a in &streams {
            for b in &streams {
                let (xa, xb) = (Access::with_bytes(a, 8), Access::with_bytes(b, 4));
                for d in 0..=3 {
                    let _ = overlap_at(&xa, &xb, trip, d);
                }
                let _ = overlap_any(&xa, &xb, trip);
            }
        }
        // Stride 4 from 0 first reaches 1 << 40 at iteration 1 << 38.
        let (xa, xc) = (
            Access::with_bytes(&streams[0], 4),
            Access::with_bytes(&streams[2], 4),
        );
        assert!(overlap_any(&xa, &xc, trip));
        assert!(!overlap_any(&xa, &xc, 1 << 38));
        assert!(overlap_any(&xa, &xc, (1 << 38) + 1));
    }
}
