//! Index arrays with known answers.
//!
//! Each shape is built so that its monotonicity verdict, its first
//! violation and its first out-of-domain entry follow from how it was
//! made. [`brute_force`] re-derives the same facts with the plainest
//! possible loop, and the workload compares the two before the array
//! ever reaches `rtcheck` — so the reference comes neither from the code
//! under test nor from a single piece of benchmark code.

use crate::rng::Rng;

/// The shapes `guard-cold` draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `base + i`: strictly increasing.
    Ramp,
    /// `base + stride·i`, stride 2..=9: strictly increasing with gaps.
    Strided,
    /// `i / width`: non-decreasing with runs of equal values.
    Plateau,
    /// A strided ramp with one entry pulled below its predecessor.
    Violation,
    /// `i mod period`, period a multiple of 4096: a ramp that restarts.
    BlockPeriodic,
    /// A ramp with one entry at or beyond the domain, placed in the last
    /// sixteenth so the early exit costs nearly the full scan.
    OutOfDomain,
}

/// All shapes, in a fixed order.
pub const SHAPES: [Shape; 6] = [
    Shape::Ramp,
    Shape::Strided,
    Shape::Plateau,
    Shape::Violation,
    Shape::BlockPeriodic,
    Shape::OutOfDomain,
];

/// The facts a guard decision rests on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Known {
    /// No adjacent pair decreases.
    pub nonstrict: bool,
    /// Every adjacent pair increases.
    pub strict: bool,
    /// Smallest `i` with `a[i-1] > a[i]`.
    pub first_violation: Option<usize>,
    /// Smallest `i` with `a[i] >= domain`.
    pub out_of_domain: Option<usize>,
}

/// A generated array, the domain it must be validated against, and what
/// the generator knows about it.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The subscripts.
    pub data: Vec<usize>,
    /// Exclusive bound on valid entries.
    pub domain: usize,
    /// The known answer.
    pub known: Known,
}

const MONOTONE: Known = Known {
    nonstrict: true,
    strict: true,
    first_violation: None,
    out_of_domain: None,
};

/// Builds `shape` with `n >= 8192` elements; `rng` picks its parameters.
pub fn generate(shape: Shape, n: usize, rng: &mut Rng) -> Generated {
    assert!(n >= 8192, "shapes need room for a period and a tail");
    let base = rng.range(0, 1000);
    match shape {
        Shape::Ramp => Generated {
            data: (0..n).map(|i| base + i).collect(),
            domain: base + n,
            known: MONOTONE,
        },
        Shape::Strided => {
            let stride = rng.range(2, 10);
            Generated {
                data: (0..n).map(|i| base + stride * i).collect(),
                domain: base + stride * (n - 1) + 1,
                known: MONOTONE,
            }
        }
        Shape::Plateau => {
            let width = rng.range(2, 65);
            Generated {
                data: (0..n).map(|i| i / width).collect(),
                domain: (n - 1) / width + 1,
                known: Known {
                    strict: false,
                    ..MONOTONE
                },
            }
        }
        Shape::Violation => {
            let at = rng.range(1, n);
            let mut data: Vec<usize> = (0..n).map(|i| base + 1 + 2 * i).collect();
            // One below the predecessor; the successor is still above.
            data[at] = data[at - 1] - 1;
            Generated {
                data,
                domain: base + 2 * n,
                known: Known {
                    nonstrict: false,
                    strict: false,
                    first_violation: Some(at),
                    out_of_domain: None,
                },
            }
        }
        Shape::BlockPeriodic => {
            let period = 4096 * rng.range(1, (n / 4096).min(8));
            Generated {
                data: (0..n).map(|i| i % period).collect(),
                domain: period,
                known: Known {
                    nonstrict: false,
                    strict: false,
                    first_violation: Some(period),
                    out_of_domain: None,
                },
            }
        }
        Shape::OutOfDomain => {
            let at = rng.range(n - n / 16, n);
            let domain = base + n;
            let mut data: Vec<usize> = (0..n).map(|i| base + i).collect();
            data[at] = domain + rng.range(0, 1000);
            Generated {
                data,
                domain,
                known: Known {
                    // The spike also breaks the ramp right after itself,
                    // unless it is the last entry; ingest must refuse
                    // before any of that matters.
                    nonstrict: at + 1 == n,
                    strict: at + 1 == n,
                    first_violation: (at + 1 < n).then_some(at + 1),
                    out_of_domain: Some(at),
                },
            }
        }
    }
}

/// One pass, one comparison at a time: the reference the generator's
/// claim is held against.
pub fn brute_force(data: &[usize], domain: usize) -> Known {
    let mut known = Known {
        nonstrict: true,
        strict: true,
        first_violation: None,
        out_of_domain: None,
    };
    for i in 0..data.len() {
        if known.out_of_domain.is_none() && data[i] >= domain {
            known.out_of_domain = Some(i);
        }
        if i > 0 && known.first_violation.is_none() {
            if data[i - 1] > data[i] {
                known.first_violation = Some(i);
                known.nonstrict = false;
                known.strict = false;
            } else if data[i - 1] == data[i] {
                known.strict = false;
            }
        }
    }
    known
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shape_agrees_with_the_brute_force_scan() {
        for seed in 0..20 {
            for (k, shape) in SHAPES.iter().enumerate() {
                for n in [8192, 65_536, 100_003] {
                    let mut rng = Rng::new(seed, k as u64);
                    let g = generate(*shape, n, &mut rng);
                    assert_eq!(g.data.len(), n);
                    assert_eq!(
                        brute_force(&g.data, g.domain),
                        g.known,
                        "{shape:?} n={n} seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn shapes_cover_every_verdict() {
        let mut rng = Rng::new(3, 0);
        let known: Vec<Known> = SHAPES
            .iter()
            .map(|s| generate(*s, 65_536, &mut rng).known)
            .collect();
        assert!(known.iter().any(|k| k.strict));
        assert!(known.iter().any(|k| k.nonstrict && !k.strict));
        assert!(known
            .iter()
            .any(|k| !k.nonstrict && k.out_of_domain.is_none()));
        assert!(known.iter().any(|k| k.out_of_domain.is_some()));
    }

    #[test]
    fn domains_are_tight() {
        let mut rng = Rng::new(9, 0);
        for shape in [
            Shape::Ramp,
            Shape::Strided,
            Shape::Plateau,
            Shape::BlockPeriodic,
        ] {
            let g = generate(shape, 65_536, &mut rng);
            let max = *g.data.iter().max().unwrap();
            assert_eq!(max + 1, g.domain, "{shape:?}");
        }
    }

    #[test]
    fn brute_force_on_small_hand_cases() {
        let k = brute_force(&[1, 2, 2, 5, 4, 9], 9);
        assert_eq!(
            k,
            Known {
                nonstrict: false,
                strict: false,
                first_violation: Some(4),
                out_of_domain: Some(5)
            }
        );
        assert_eq!(brute_force(&[], 0), MONOTONE);
        assert!(brute_force(&[0, 1, 2], 3).strict);
    }
}
