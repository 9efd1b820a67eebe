//! Seeded inputs. The seed decides the rigid translation of every α job's
//! geometry and the request stream of the served mix; the program receives
//! only the generated geometries and requests.

use qp_chem::geometry::Structure;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// A rigid translation with each component uniform in `[-1, 1)` bohr.
    pub fn translation(&mut self) -> [f64; 3] {
        [0, 1, 2].map(|_| 2.0 * self.unit() - 1.0)
    }
}

/// Stream ids, so α jobs and serve clients never share random numbers.
const ALPHA_STREAM: u64 = 0xA1;
const SERVE_STREAM: u64 = 0x5E;

/// The translation applied to job `job` of an α run with `seed`.
pub fn job_translation(seed: u64, job: u64) -> [f64; 3] {
    Rng::new(seed, ALPHA_STREAM ^ (job << 8)).translation()
}

/// `structure` moved rigidly by `t` (bohr).
pub fn translated(structure: &Structure, t: [f64; 3]) -> Structure {
    let mut s = structure.clone();
    for a in &mut s.atoms {
        for (x, dx) in a.position.iter_mut().zip(t) {
            *x += dx;
        }
    }
    s
}

/// Molecules of the served mix: small bench-grade jobs of 0.1–1 s.
pub const SERVE_TEMPLATES: [&str; 5] =
    ["water", "polymer:1", "polymer:2", "polymer:3", "polymer:4"];

/// One distinct served request: a template moved by a translation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestSpec {
    /// Index into [`SERVE_TEMPLATES`].
    pub template: usize,
    /// Rigid translation of the template geometry (bohr).
    pub translation: [f64; 3],
}

/// One client's closed-loop request stream. Every fourth request is new (a
/// template at a fresh translation, so a cache miss); the other three
/// repeat one of the client's earlier requests (cache hits). New requests
/// and repeats each walk the templates in seeded permutations, and a repeat
/// names a random earlier request of its template, so every seed gets the
/// same template mix among misses and among hits in a different order: a
/// hit on polymer:4 takes about twice as long as one on water.
#[derive(Debug, Clone)]
pub struct RequestStream {
    rng: Rng,
    issued: usize,
    fresh_cycle: Vec<usize>,
    repeat_cycle: Vec<usize>,
    repeats: usize,
    /// Distinct requests issued so far, in order of first issue.
    pub pool: Vec<RequestSpec>,
}

impl RequestStream {
    /// The stream of client `client` under `seed`.
    pub fn new(seed: u64, client: u64) -> Self {
        RequestStream {
            rng: Rng::new(seed, SERVE_STREAM ^ (client << 8)),
            issued: 0,
            fresh_cycle: Vec::new(),
            repeat_cycle: Vec::new(),
            repeats: 0,
            pool: Vec::new(),
        }
    }

    /// The template at step `k` of a walk through seeded permutations of
    /// the templates (a new permutation every full pass).
    fn walk(rng: &mut Rng, cycle: &mut Vec<usize>, k: usize) -> usize {
        let n = SERVE_TEMPLATES.len();
        if k.is_multiple_of(n) {
            // Fisher–Yates.
            *cycle = (0..n).collect();
            for i in (1..n).rev() {
                let j = rng.below(i + 1);
                cycle.swap(i, j);
            }
        }
        cycle[k % n]
    }

    /// The next request: its index in [`RequestStream::pool`] and whether
    /// it is new.
    pub fn next_request(&mut self) -> (usize, bool) {
        let fresh = self.issued.is_multiple_of(4);
        self.issued += 1;
        if !fresh {
            let template = Self::walk(&mut self.rng, &mut self.repeat_cycle, self.repeats);
            self.repeats += 1;
            let same: Vec<usize> = (0..self.pool.len())
                .filter(|&i| self.pool[i].template == template)
                .collect();
            // Early on a template may have no request yet: any will do.
            let idx = match same.len() {
                0 => self.rng.below(self.pool.len()),
                n => same[self.rng.below(n)],
            };
            return (idx, false);
        }
        let template = Self::walk(&mut self.rng, &mut self.fresh_cycle, self.pool.len());
        let translation = self.rng.translation();
        self.pool.push(RequestSpec {
            template,
            translation,
        });
        (self.pool.len() - 1, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64, client: u64, n: usize) -> Vec<(usize, bool, RequestSpec)> {
        let mut s = RequestStream::new(seed, client);
        (0..n)
            .map(|_| {
                let (i, fresh) = s.next_request();
                (i, fresh, s.pool[i])
            })
            .collect()
    }

    #[test]
    fn same_seed_same_stream_and_translation() {
        assert_eq!(take(42, 0, 500), take(42, 0, 500));
        assert_ne!(take(42, 0, 500), take(43, 0, 500));
        assert_ne!(take(42, 0, 500), take(42, 1, 500));
        assert_eq!(job_translation(9, 3), job_translation(9, 3));
        assert_ne!(job_translation(9, 3), job_translation(9, 4));
        assert_ne!(job_translation(9, 3), job_translation(10, 3));
        for seed in 0..50 {
            assert!(job_translation(seed, 0)
                .iter()
                .all(|c| (-1.0..1.0).contains(c)));
        }
    }

    #[test]
    fn stream_is_three_quarters_repeats_with_balanced_templates() {
        let reqs = take(7, 0, 20_000);
        assert!(reqs.iter().enumerate().all(|(k, r)| r.1 == (k % 4 == 0)));
        // A repeat names a request issued before it.
        let mut issued = 0;
        for r in &reqs {
            if r.1 {
                assert_eq!(r.0, issued);
                issued += 1;
            } else {
                assert!(r.0 < issued);
            }
        }
        let n = SERVE_TEMPLATES.len();
        for fresh in [true, false] {
            let mut counts = vec![0usize; n];
            for r in reqs.iter().filter(|r| r.1 == fresh) {
                counts[r.2.template] += 1;
            }
            // Only the repeats before every template has a request can
            // stray from the permutation walk.
            let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(hi - lo <= n, "fresh {fresh}: template counts {counts:?}");
        }
    }

    #[test]
    fn translation_is_rigid() {
        let s = qp_chem::structures::water();
        let t = translated(&s, [0.5, -0.25, 1.0]);
        for (a, b) in s.atoms.iter().zip(&t.atoms) {
            assert!((b.position[0] - a.position[0] - 0.5).abs() < 1e-12);
            assert_eq!(b.element, a.element);
        }
    }
}
