//! Seeded input generation. Everything a workload feeds the program is
//! built here, from `--seed`, before any timing starts: sensor traces
//! of a provider fleet, citywide upload corpora, and query sequences.
//! The same seed always yields the same inputs (a test pins this).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swag_core::{RepFov, TimedFov, UploadBatch};
use swag_geo::{LocalFrame, Vec2};
use swag_sensors::scenarios::{citywide_rep_fovs, default_origin, CitywideConfig};
use swag_sensors::{generate_trace, DeviceClock, Mobility, SensorNoise, TraceConfig};
use swag_server::Query;

/// Seconds in a simulated day.
pub const DAY_S: f64 = 86_400.0;

/// Query windows (§VI-B-2 style investigator requests): 10 min and 1 h.
const WINDOWS_S: [f64; 2] = [600.0, 3_600.0];

/// Query radius, metres.
const QUERY_RADIUS_M: f64 = 100.0;

/// How far in front of a camera a targeted query is centred, metres, so
/// the direction filter keeps the footage that prompted the query.
const SCENE_AHEAD_M: f64 = 25.0;

/// Representative FoVs per citywide upload (one recording session).
pub const CITY_BATCH: usize = 8;

/// Derives an independent stream for one input family from the seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One provider recording session: the raw per-frame sensor trace the
/// client pipeline consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    pub provider_id: u64,
    pub video_id: u64,
    pub frames: Vec<TimedFov>,
}

impl Session {
    /// Capture time of the last frame (uploads go out in this order).
    pub fn t_end(&self) -> f64 {
        self.frames.last().map_or(0.0, |f| f.t)
    }
}

/// A provider fleet over one simulated day starting at `day_start_s`:
/// random-waypoint walkers, Manhattan-grid walkers and drivers, sampled
/// at 25 fps with smartphone sensor noise. Sorted by end time.
pub fn fleet(seed: u64, sessions: usize, extent_m: f64, day_start_s: f64) -> Vec<Session> {
    let frame = LocalFrame::new(default_origin());
    let noise = SensorNoise::smartphone();
    let mut rng = rng(seed, 1);
    let mut out: Vec<Session> = (0..sessions)
        .map(|i| {
            let duration_s = rng.random_range(15.0..60.0);
            let start = Vec2::new(
                rng.random_range(-extent_m..extent_m),
                rng.random_range(-extent_m..extent_m),
            );
            // A fixed mix — four random-waypoint walkers, three grid
            // walkers and three drivers in every ten sessions — so the
            // client's per-frame cost does not vary with the seed.
            let mobility = match i % 10 {
                0..=3 => Mobility::random_waypoint(rng.random(), extent_m, 4, 1.4),
                4..=6 => Mobility::manhattan(rng.random(), start, 100.0, 10, 1.4),
                _ => Mobility::manhattan(rng.random(), start, 200.0, 20, 11.0),
            };
            let t0 = day_start_s + rng.random_range(0.0..DAY_S - duration_s);
            let cfg = TraceConfig::new(25.0, duration_s).starting_at(t0);
            let frames = generate_trace(
                &mobility,
                &frame,
                &cfg,
                &noise,
                &DeviceClock::PERFECT,
                &mut rng,
            );
            Session {
                provider_id: rng.random_range(0..500),
                video_id: i as u64,
                frames,
            }
        })
        .collect();
    out.sort_by(|a, b| a.t_end().total_cmp(&b.t_end()));
    out
}

/// One day of the paper's §VI-B-2 citywide representative FoVs, shifted
/// to start at `day_start_s`, grouped into end-time-ordered uploads of
/// [`CITY_BATCH`] records. Video ids start at `first_video`.
pub fn citywide_day(
    seed: u64,
    records: usize,
    day_start_s: f64,
    first_video: u64,
) -> Vec<UploadBatch> {
    let mut reps = citywide_rep_fovs(records, &CitywideConfig::default(), seed);
    for r in &mut reps {
        r.t_start += day_start_s;
        r.t_end += day_start_s;
    }
    reps.sort_by(|a, b| a.t_end.total_cmp(&b.t_end));
    let mut rng = rng(seed, 2);
    reps.chunks(CITY_BATCH)
        .enumerate()
        .map(|(i, chunk)| UploadBatch {
            provider_id: rng.random_range(0..20_000),
            video_id: first_video + i as u64,
            reps: chunk.to_vec(),
        })
        .collect()
}

/// Encodes uploads the way a provider's phone does before sending them.
pub fn encode_all(batches: &[UploadBatch]) -> Vec<wire::Wire> {
    batches.iter().map(wire::encode).collect()
}

/// A query window of one of [`WINDOWS_S`] placed uniformly so that it
/// contains `t`.
fn window_around(rng: &mut StdRng, t: f64) -> (f64, f64) {
    let w = WINDOWS_S[rng.random_range(0..WINDOWS_S.len())];
    let t0 = (t - rng.random_range(0.0..w)).max(0.0);
    (t0, t0 + w)
}

/// A query about the scene just in front of a recorded FoV, at a time
/// it was filmed.
pub fn targeted_query(rng: &mut StdRng, rep: &RepFov) -> Query {
    let t = rng.random_range(rep.t_start..=rep.t_end);
    let (t0, t1) = window_around(rng, t);
    let scene = rep.fov.p.offset(rep.fov.theta, SCENE_AHEAD_M);
    Query::new(t0, t1, scene, QUERY_RADIUS_M)
}

/// A query about a uniformly random place and time of the citywide area
/// within `[t_lo, t_hi)`.
pub fn blind_query(rng: &mut StdRng, t_lo: f64, t_hi: f64) -> Query {
    let extent = CitywideConfig::default().extent_m;
    let p = LocalFrame::new(default_origin()).from_local(Vec2::new(
        rng.random_range(-extent..extent),
        rng.random_range(-extent..extent),
    ));
    let t = rng.random_range(t_lo..t_hi);
    let (t0, t1) = window_around(rng, t);
    Query::new(t0, t1, p, QUERY_RADIUS_M)
}

/// `n` distinct queries over `corpus`: a `targeted` share aimed at a
/// random record's scene and time, the rest blind within `[t_lo, t_hi)`.
pub fn query_mix(
    seed: u64,
    corpus: &[RepFov],
    n: usize,
    targeted: f64,
    t_lo: f64,
    t_hi: f64,
) -> Vec<Query> {
    let mut rng = rng(seed, 3);
    (0..n)
        .map(|_| {
            if rng.random_bool(targeted) {
                let rep = corpus[rng.random_range(0..corpus.len())];
                targeted_query(&mut rng, &rep)
            } else {
                blind_query(&mut rng, t_lo, t_hi)
            }
        })
        .collect()
}

/// Incidents an investigator asks about: places and times with footage,
/// taken from random frames of the fleet's sessions (half from
/// `early`, half from `late`, so part of the pool lies where live
/// uploads are still arriving).
pub fn incidents(seed: u64, early: &[Session], late: &[Session], n: usize) -> Vec<Query> {
    let mut rng = rng(seed, 4);
    (0..n)
        .map(|i| {
            let pool = if i % 2 == 0 && !late.is_empty() {
                late
            } else {
                early
            };
            let s = &pool[rng.random_range(0..pool.len())];
            let f = s.frames[rng.random_range(0..s.frames.len())];
            let (t0, t1) = window_around(&mut rng, f.t);
            Query::new(
                t0,
                t1,
                f.fov.p.offset(f.fov.theta, SCENE_AHEAD_M),
                QUERY_RADIUS_M,
            )
        })
        .collect()
}

/// Zipf(`s`) sampler over ranks `0..n` (rank 0 most popular), by
/// inverse transform on the cumulative weights.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// `n` draws from `pool` with Zipf(`s`) popularity.
pub fn zipf_sequence(seed: u64, pool: &[Query], n: usize, s: f64) -> Vec<Query> {
    let zipf = Zipf::new(pool.len(), s);
    let mut rng = rng(seed, 5);
    (0..n).map(|_| pool[zipf.sample(&mut rng)]).collect()
}

/// The upload wire format: [`swag_core::DescriptorCodec`] batches.
pub mod wire {
    use swag_core::{DescriptorCodec, UploadBatch};

    /// An encoded upload as it travels from phone to server.
    pub type Wire = Vec<u8>;

    pub fn encode(batch: &UploadBatch) -> Wire {
        DescriptorCodec::encode_batch(batch)
            .expect("generated records are representable")
            .to_vec()
    }

    pub fn decode(wire: &[u8]) -> UploadBatch {
        DescriptorCodec::decode_batch(wire).expect("uploads decode")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = fleet(7, 6, 1_000.0, 0.0);
        let b = fleet(7, 6, 1_000.0, 0.0);
        assert_eq!(a, b);
        assert_ne!(a, fleet(8, 6, 1_000.0, 0.0));
        assert!(a.windows(2).all(|w| w[0].t_end() <= w[1].t_end()));
        let c1 = citywide_day(7, 100, DAY_S, 0);
        assert_eq!(c1, citywide_day(7, 100, DAY_S, 0));
        let corpus: Vec<RepFov> = c1.iter().flat_map(|b| b.reps.clone()).collect();
        assert!(corpus.iter().all(|r| r.t_start >= DAY_S));
        let q1 = query_mix(7, &corpus, 50, 0.9, 0.0, DAY_S);
        assert_eq!(q1, query_mix(7, &corpus, 50, 0.9, 0.0, DAY_S));
        let inc = incidents(7, &a[..3], &a[3..], 10);
        assert_eq!(inc, incidents(7, &a[..3], &a[3..], 10));
        assert_eq!(
            zipf_sequence(7, &inc, 40, 1.0),
            zipf_sequence(7, &inc, 40, 1.0)
        );
    }

    #[test]
    fn zipf_follows_its_law() {
        let zipf = Zipf::new(100, 1.0);
        let mut rng = rng(1, 0);
        let mut counts = [0u32; 100];
        let draws = 200_000;
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // H(100) ≈ 5.187: rank 0 carries ≈ 19.3 % of draws, rank 1 half
        // of that, rank 9 a tenth.
        let share = |k: usize| f64::from(counts[k]) / f64::from(draws);
        assert!(
            (share(0) - 0.1928).abs() < 0.01,
            "rank 0 share {}",
            share(0)
        );
        assert!((share(0) / share(1) - 2.0).abs() < 0.15);
        assert!((share(0) / share(9) - 10.0).abs() < 1.5);
        assert!(counts.iter().all(|&c| c > 0));
        // Every draw is in range, even for u close to 1.
        let one = Zipf::new(1, 1.0);
        assert!((0..100).all(|_| one.sample(&mut rng) == 0));
    }

    #[test]
    fn targeted_queries_cover_their_source() {
        let mut rng = rng(3, 0);
        for b in citywide_day(3, 64, 0.0, 0) {
            for rep in &b.reps {
                let q = targeted_query(&mut rng, rep);
                assert!(q.t_start <= rep.t_end && q.t_end >= rep.t_start);
                assert!(rep.fov.p.distance_m(q.center) < QUERY_RADIUS_M);
            }
        }
    }
}
