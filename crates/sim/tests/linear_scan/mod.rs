//! The linear scan `Track::project` is defined by: every segment visited
//! in index order, the first one at the least squared distance kept. The
//! reference the projection differentials compare `Track::project`
//! against, bit for bit. It sees the track only through its public
//! points, and rebuilds stations and headings with the expressions the
//! track itself uses.

use adassure_sim::geometry::Vec2;
use adassure_sim::track::{Projection, Track};

/// Projects `point` onto `track` by scanning every segment.
pub fn project(track: &Track, point: Vec2) -> Projection {
    let points = track.points();
    let n = points.len();
    let closed = track.is_closed();
    let seg_count = if closed { n } else { n - 1 };
    let mut stations = vec![0.0];
    let mut acc = 0.0;
    for w in points.windows(2) {
        acc += w[0].distance(w[1]);
        stations.push(acc);
    }
    let heading = |i: usize| {
        if closed {
            (points[(i + 1) % n] - points[(i + n - 1) % n]).angle()
        } else if i == 0 {
            (points[1] - points[0]).angle()
        } else if i == n - 1 {
            (points[n - 1] - points[n - 2]).angle()
        } else {
            (points[i + 1] - points[i - 1]).angle()
        }
    };

    let mut best_d2 = f64::INFINITY;
    let mut best = Projection {
        station: 0.0,
        cross_track: 0.0,
        heading: heading(0),
        point: points[0],
    };
    for i in 0..seg_count {
        let a = points[i];
        let b = points[(i + 1) % n];
        let ab = b - a;
        let len_sq = ab.norm_sq();
        let t = if len_sq > 0.0 {
            ((point - a).dot(ab) / len_sq).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let proj = a.lerp(b, t);
        let d2 = point.distance(proj).powi(2);
        if d2 < best_d2 {
            best_d2 = d2;
            let seg_len = len_sq.sqrt();
            let tangent = if seg_len > 0.0 {
                ab * (1.0 / seg_len)
            } else {
                Vec2::from_angle(heading(i))
            };
            best = Projection {
                station: stations[i] + t * seg_len,
                cross_track: tangent.cross(point - proj),
                heading: tangent.angle(),
                point: proj,
            };
        }
    }
    best
}

/// The bits of every field of a projection, for exact comparison (NaN
/// included).
pub fn bits(p: &Projection) -> [u64; 5] {
    [
        p.station.to_bits(),
        p.cross_track.to_bits(),
        p.heading.to_bits(),
        p.point.x.to_bits(),
        p.point.y.to_bits(),
    ]
}

/// Every vertex and segment midpoint (equidistant from two segments'
/// ends), normal offsets at several scales from every fifth vertex, and
/// far-off and non-finite points: the probes both differentials run on
/// every track.
pub fn probe_points(track: &Track) -> Vec<Vec2> {
    let points = track.points();
    let n = points.len();
    let mut probes = Vec::new();
    for i in 0..n {
        let a = points[i];
        let b = points[(i + 1) % n];
        probes.push(a);
        probes.push(a.lerp(b, 0.5));
        if i % 5 != 0 {
            continue;
        }
        let normal = (b - a).perp().normalized().unwrap_or(Vec2::new(0.0, 1.0));
        for offset in [1e-9, 0.01, 0.5, 3.0, 25.0, 100.0, 500.0] {
            probes.push(a + normal * offset);
            probes.push(a - normal * offset);
        }
    }
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    probes.extend(
        [
            (1e6, 1e6),
            (-1e9, 3.0),
            (1e154, -1e154),
            (1e200, 0.0),
            (nan, 0.0),
            (0.0, nan),
            (nan, nan),
            (inf, 0.0),
            (0.0, -inf),
            (-inf, inf),
            (nan, inf),
        ]
        .map(|(x, y)| Vec2::new(x, y)),
    );
    probes
}
