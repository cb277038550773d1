//! Affine subscript dependence testing.
//!
//! For a single loop with canonical induction variable `i`, a reference
//! touches elements `stride*i + offset .. + width`. Dependence testing asks:
//! for which iteration distances `d ≥ 0` can reference `src` (at iteration
//! `i`) and reference `dst` (at iteration `i + d`) touch the same element?
//!
//! With one index variable the classic ZIV/strong-SIV/weak-SIV machinery
//! collapses to exact small-integer arithmetic, which we implement directly
//! and cross-check against brute-force enumeration in the property tests.

use sv_ir::MemRef;

/// Bound under which mismatched-stride pairs are tested distance by
/// distance; beyond it, possible dependences collapse into
/// [`Distance::Far`]. Far larger than any vector length and any cycle the
/// scheduler could care about.
pub const FAR_BOUND: u32 = 64;

/// A dependence distance between two references.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Distance {
    /// Dependence at exactly this iteration distance (0 = intra-iteration).
    Exact(u32),
    /// Dependences may exist at distances greater than [`FAR_BOUND`] (and
    /// only there). Such edges order loop distribution and add a weak
    /// scheduling constraint, but never inhibit vectorization: every
    /// distance exceeds any vector length.
    Far,
    /// Dependence at unboundedly many distances *including short ones*
    /// (loop-invariant conflicts). Consumers must treat this
    /// conservatively: it blocks vectorization and pins scheduling at
    /// distance 1 in both directions.
    Star,
}

/// All iteration distances `d ≥ 0` at which `dst` (executing `d` iterations
/// after `src`) may touch an element `src` touched.
///
/// Returns an empty vector when the references are provably independent in
/// that direction. The result is exact for same-stride pairs (any width)
/// and, for mismatched strides, exact up to [`FAR_BOUND`] with a
/// [`Distance::Far`] marker covering any solutions beyond; only
/// loop-invariant conflicts remain fully conservative ([`Distance::Star`]).
/// References to *different arrays* must be filtered by the caller.
pub fn mem_dependences(src: &MemRef, dst: &MemRef, max_exact: u32) -> Vec<Distance> {
    debug_assert_eq!(src.array, dst.array, "caller must pair refs per array");
    let (s1, o1, w1) = (src.stride, src.offset, src.width as i64);
    let (s2, o2, w2) = (dst.stride, dst.offset, dst.width as i64);

    if s1 == s2 {
        let s = s1;
        if s == 0 {
            // Loop-invariant addresses: conflict iff windows overlap, and
            // then at every distance.
            return if windows_overlap(o1, w1, o2, w2) {
                vec![Distance::Star]
            } else {
                Vec::new()
            };
        }
        // Element match: s*i + o1 + a = s*(i+d) + o2 + b
        //   ⇒ s*d = (o1 - o2) + (a - b),  a ∈ [0, w1), b ∈ [0, w2)
        // so s*d ranges over (o1 - o2 - w2, o1 - o2 + w1).
        let lo = o1 - o2 - (w2 - 1);
        let hi = o1 - o2 + (w1 - 1);
        let mut out = Vec::new();
        for target in lo..=hi {
            if target % s == 0 {
                let d = target / s;
                if d >= 0 {
                    if d as u64 > u64::from(max_exact) {
                        // Far-apart dependence; report exactly anyway (u32
                        // saturation) so the caller can apply the paper's
                        // distance ≥ VL exception.
                        out.push(Distance::Exact(u32::try_from(d).unwrap_or(u32::MAX)));
                    } else {
                        out.push(Distance::Exact(d as u32));
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        return out;
    }

    // Mismatched strides:
    //   s1*i + o1 + a = s2*(i + d) + o2 + b
    //   ⇒ (s1 - s2)*i = s2*d + (o2 - o1) + (b - a)
    // For each candidate d the right-hand side determines i exactly, so
    // distances up to FAR_BOUND are tested one by one; a Far marker covers
    // the (arithmetic-progression) solutions beyond when they can exist.
    let g = gcd((s1 - s2).unsigned_abs(), s2.unsigned_abs());
    if g > 1 {
        let any = (-(w1 - 1)..=(w2 - 1))
            .any(|ba| ((o2 - o1) + ba).rem_euclid(g as i64) == 0);
        if !any {
            return Vec::new();
        }
    }
    let _ = max_exact;
    let denom = s1 - s2; // nonzero here
    let mut out = Vec::new();
    for d in 0..=i64::from(FAR_BOUND) {
        let hit = (-(w1 - 1)..=(w2 - 1)).any(|ba| {
            let rhs = s2 * d + (o2 - o1) + ba;
            rhs % denom == 0 && rhs / denom >= 0
        });
        if hit {
            out.push(Distance::Exact(d as u32));
        }
    }
    // Solutions at arbitrarily large d need i = (s2·d + c)/(s1 − s2) to
    // stay ≥ 0 as d grows: the quotient's sign is sign(s2)·sign(denom).
    let unbounded = s2 != 0 && (s2 > 0) == (denom > 0);
    if unbounded {
        out.push(Distance::Far);
    }
    out
}

fn windows_overlap(o1: i64, w1: i64, o2: i64, w2: i64) -> bool {
    o1 < o2 + w2 && o2 < o1 + w1
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_ir::ArrayId;

    fn r(stride: i64, offset: i64) -> MemRef {
        MemRef::scalar(ArrayId(0), stride, offset)
    }

    fn rw(stride: i64, offset: i64, width: u32) -> MemRef {
        MemRef { array: ArrayId(0), stride, offset, width }
    }

    #[test]
    fn same_ref_is_distance_zero() {
        assert_eq!(mem_dependences(&r(1, 0), &r(1, 0), 64), vec![Distance::Exact(0)]);
    }

    #[test]
    fn forward_carried_distance() {
        // src touches a[i+2]; dst (later) touches a[i] ⇒ dst at i+2 touches
        // what src touched at i.
        assert_eq!(mem_dependences(&r(1, 2), &r(1, 0), 64), vec![Distance::Exact(2)]);
        // The other direction is independent (negative distance).
        assert_eq!(mem_dependences(&r(1, 0), &r(1, 2), 64), vec![]);
    }

    #[test]
    fn stride_divisibility() {
        // a[2i] vs a[2i+1]: disjoint parity classes.
        assert_eq!(mem_dependences(&r(2, 0), &r(2, 1), 64), vec![]);
        // a[2i] vs a[2i+4]: distance would be negative one way, 2 the other.
        assert_eq!(mem_dependences(&r(2, 4), &r(2, 0), 64), vec![Distance::Exact(2)]);
    }

    #[test]
    fn negative_stride_pairs() {
        // a[-i + 8] at iteration i matches a[-i + 10] two iterations later:
        // -i + 8 = -(i + 2) + 10.
        assert_eq!(mem_dependences(&r(-1, 8), &r(-1, 10), 64), vec![Distance::Exact(2)]);
        assert_eq!(mem_dependences(&r(-1, 10), &r(-1, 8), 64), vec![]);
    }

    #[test]
    fn invariant_conflict_is_star() {
        assert_eq!(mem_dependences(&r(0, 5), &r(0, 5), 64), vec![Distance::Star]);
        assert_eq!(mem_dependences(&r(0, 5), &r(0, 6), 64), vec![]);
    }

    #[test]
    fn wide_refs_extend_overlap() {
        // Vector ref of width 2 at a[i] vs scalar a[i+1]: overlap at d=0 one
        // way and d=1 the other.
        let v = rw(1, 0, 2);
        assert_eq!(
            mem_dependences(&v, &r(1, 0), 64),
            vec![Distance::Exact(0), Distance::Exact(1)]
        );
        assert_eq!(
            mem_dependences(&r(1, 1), &v, 64),
            vec![Distance::Exact(0), Distance::Exact(1)]
        );
    }

    #[test]
    fn mismatched_strides_gcd_independence() {
        // a[2i] vs a[4i+1]: everything even vs odd ⇒ independent.
        assert_eq!(mem_dependences(&r(2, 0), &r(4, 1), 64), vec![]);
        // a[2i] (src) vs a[4i+2] (dst): 2i = 4(i+d)+2 ⇒ i = -2d-2 < 0 for
        // every d ≥ 0: provably independent in this direction…
        assert_eq!(mem_dependences(&r(2, 0), &r(4, 2), 64), vec![]);
        // …while the opposite direction hits every positive distance
        // (4i+2 = 2(i+d) ⇒ d = i+1), reported exactly up to FAR_BOUND plus
        // a Far tail.
        let deps = mem_dependences(&r(4, 2), &r(2, 0), 64);
        assert_eq!(deps[0], Distance::Exact(1));
        assert!(!deps.contains(&Distance::Exact(0)));
        assert!(deps.contains(&Distance::Far));
        assert_eq!(deps.len() as u32, FAR_BOUND + 1);
    }

    #[test]
    fn mismatched_strides_bounded_distances() {
        // a[7] (invariant, width 1? no: stride 0 src) vs moving dst is the
        // Star case; here: src a[3i], dst a[i]: 3i = i' with i' = i + d ⇒
        // dependences exist only while i' keeps up: i = d/2 ⇒ even d only.
        let deps = mem_dependences(&r(3, 0), &r(1, 0), 64);
        assert!(deps.contains(&Distance::Exact(0)));
        assert!(deps.contains(&Distance::Exact(2)));
        assert!(!deps.contains(&Distance::Exact(1)));
        assert!(deps.contains(&Distance::Far));
        // Reverse: dst outruns src: src a[i], dst a[3i]: i = 3(i+d) ⇒
        // i = -3d/2 ≤ 0: only d = 0 (at i = 0).
        let deps = mem_dependences(&r(1, 0), &r(3, 0), 64);
        assert_eq!(deps, vec![Distance::Exact(0)]);
    }

    #[test]
    fn long_distance_reported_exactly() {
        // a[i+100] then a[i]: distance 100 even past max_exact.
        assert_eq!(mem_dependences(&r(1, 100), &r(1, 0), 4), vec![Distance::Exact(100)]);
    }
}
