//! Arc-length-parameterised reference paths.
//!
//! A [`Track`] is a polyline resampled at uniform spacing, supporting the
//! three queries every AD controller and assertion needs:
//!
//! * `point_at(s)` / `heading_at(s)` / `curvature_at(s)` — geometry at an
//!   arc-length station;
//! * `project(point)` — nearest station, *signed* cross-track error
//!   (positive when the point lies left of the path) and local tangent
//!   heading;
//! * `length()` / `is_closed()` — extent bookkeeping (closed tracks wrap).

use serde::{Deserialize, Serialize};

use crate::geometry::{wrap_angle, Vec2};
use crate::SimError;

/// Result of projecting a point onto a track.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Projection {
    /// Arc-length station of the closest point (m).
    pub station: f64,
    /// Signed lateral offset (m); positive = left of the path direction.
    pub cross_track: f64,
    /// Tangent heading of the path at the station (rad).
    pub heading: f64,
    /// Closest point on the path.
    pub point: Vec2,
}

/// An arc-length-parameterised path.
#[derive(Debug, Clone, PartialEq)]
pub struct Track {
    points: Vec<Vec2>,
    stations: Vec<f64>,
    headings: Vec<f64>,
    curvatures: Vec<f64>,
    closed: bool,
    /// Projection index: the bounds of segments `c * CHUNK ..` in `chunks[c]`.
    chunks: Vec<Bounds>,
}

impl Track {
    /// Builds a track by resampling a waypoint polyline at `spacing` metres.
    ///
    /// Pass `closed = true` when the last waypoint should connect back to
    /// the first (loops, circles).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidTrack`] when fewer than two distinct
    /// waypoints are supplied, any waypoint is non-finite, or `spacing` is
    /// not positive.
    pub fn from_waypoints(
        waypoints: impl IntoIterator<Item = impl Into<Vec2>>,
        spacing: f64,
        closed: bool,
    ) -> Result<Self, SimError> {
        let raw: Vec<Vec2> = waypoints.into_iter().map(Into::into).collect();
        if !(spacing.is_finite() && spacing > 0.0) {
            return Err(SimError::InvalidTrack(format!(
                "spacing must be positive, got {spacing}"
            )));
        }
        if raw.iter().any(|p| !p.is_finite()) {
            return Err(SimError::InvalidTrack("non-finite waypoint".to_owned()));
        }
        let mut polyline = raw.clone();
        if closed {
            if let (Some(&first), Some(&last)) = (raw.first(), raw.last()) {
                if first.distance(last) > 1e-9 {
                    polyline.push(first);
                }
            }
        }
        let total: f64 = polyline.windows(2).map(|w| w[0].distance(w[1])).sum();
        if polyline.len() < 2 || total < spacing {
            return Err(SimError::InvalidTrack(format!(
                "need at least two distinct waypoints spanning >= spacing ({spacing} m)"
            )));
        }

        // Resample at uniform arc-length spacing.
        let n = (total / spacing).floor() as usize;
        let mut points = Vec::with_capacity(n + 1);
        let mut seg = 0usize;
        let mut seg_start_s = 0.0;
        for i in 0..=n {
            let target = (i as f64 * spacing).min(total);
            loop {
                let seg_len = polyline[seg].distance(polyline[seg + 1]);
                if target <= seg_start_s + seg_len || seg + 2 >= polyline.len() {
                    let alpha = if seg_len > 0.0 {
                        ((target - seg_start_s) / seg_len).clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                    points.push(polyline[seg].lerp(polyline[seg + 1], alpha));
                    break;
                }
                seg_start_s += seg_len;
                seg += 1;
            }
        }
        if !closed {
            // Make sure the final waypoint is represented exactly.
            let last = *polyline.last().expect("polyline has >= 2 points");
            if points
                .last()
                .is_none_or(|p| p.distance(last) > spacing * 0.25)
            {
                points.push(last);
            } else {
                *points.last_mut().expect("points is non-empty") = last;
            }
        } else if points
            .last()
            .zip(points.first())
            .is_some_and(|(l, f)| l.distance(*f) < spacing * 0.25)
        {
            // Avoid a duplicated closing point.
            points.pop();
        }
        if points.len() < 2 {
            return Err(SimError::InvalidTrack(
                "resampling produced fewer than two points".to_owned(),
            ));
        }

        Ok(Track::from_resampled(points, closed))
    }

    fn from_resampled(points: Vec<Vec2>, closed: bool) -> Self {
        let n = points.len();
        let mut stations = Vec::with_capacity(n);
        let mut acc = 0.0;
        stations.push(0.0);
        for w in points.windows(2) {
            acc += w[0].distance(w[1]);
            stations.push(acc);
        }

        let heading_of = |i: usize, j: usize| (points[j] - points[i]).angle();
        let mut headings = Vec::with_capacity(n);
        for i in 0..n {
            let h = if closed {
                let prev = (i + n - 1) % n;
                let next = (i + 1) % n;
                (points[next] - points[prev]).angle()
            } else if i == 0 {
                heading_of(0, 1)
            } else if i == n - 1 {
                heading_of(n - 2, n - 1)
            } else {
                (points[i + 1] - points[i - 1]).angle()
            };
            headings.push(h);
        }

        let mut curvatures = Vec::with_capacity(n);
        for i in 0..n {
            let (a, b, ds) = if closed {
                let prev = (i + n - 1) % n;
                let next = (i + 1) % n;
                let ds = points[prev].distance(points[i]) + points[i].distance(points[next]);
                (headings[prev], headings[next], ds)
            } else if i == 0 {
                (
                    headings[0],
                    headings[1],
                    points[0].distance(points[1]).max(1e-9),
                )
            } else if i == n - 1 {
                (
                    headings[n - 2],
                    headings[n - 1],
                    points[n - 2].distance(points[n - 1]).max(1e-9),
                )
            } else {
                let ds = points[i - 1].distance(points[i]) + points[i].distance(points[i + 1]);
                (headings[i - 1], headings[i + 1], ds)
            };
            curvatures.push(wrap_angle(b - a) / ds.max(1e-9));
        }

        let segments = if closed { n } else { n - 1 };
        let chunks = (0..segments)
            .step_by(CHUNK)
            .map(|start| {
                let end = (start + CHUNK).min(segments);
                Bounds::around((start..=end).map(|i| points[i % n]))
            })
            .collect();

        Track {
            points,
            stations,
            headings,
            curvatures,
            closed,
            chunks,
        }
    }

    /// Straight line from `a` to `b`.
    ///
    /// # Errors
    ///
    /// See [`Track::from_waypoints`].
    pub fn line(a: impl Into<Vec2>, b: impl Into<Vec2>, spacing: f64) -> Result<Self, SimError> {
        Track::from_waypoints([a.into(), b.into()], spacing, false)
    }

    /// Closed circle of `radius` around `center`, traversed
    /// counter-clockwise starting at angle 0.
    ///
    /// # Errors
    ///
    /// See [`Track::from_waypoints`].
    pub fn circle(center: impl Into<Vec2>, radius: f64, spacing: f64) -> Result<Self, SimError> {
        if !(radius.is_finite() && radius > 0.0) {
            return Err(SimError::InvalidTrack(format!(
                "radius must be positive, got {radius}"
            )));
        }
        let center = center.into();
        let steps = ((std::f64::consts::TAU * radius / spacing).ceil() as usize).max(12);
        let pts = (0..steps).map(|i| {
            let a = std::f64::consts::TAU * i as f64 / steps as f64;
            center + Vec2::from_angle(a) * radius
        });
        Track::from_waypoints(pts, spacing, true)
    }

    /// Total arc length (m). For closed tracks this includes the closing
    /// segment.
    pub fn length(&self) -> f64 {
        let open_len = *self.stations.last().expect("track has >= 2 points");
        if self.closed {
            open_len
                + self
                    .points
                    .last()
                    .expect("non-empty")
                    .distance(self.points[0])
        } else {
            open_len
        }
    }

    /// Whether the track loops back on itself.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// The resampled points of the track.
    pub fn points(&self) -> &[Vec2] {
        &self.points
    }

    /// `s` wrapped (closed) or clamped (open) onto the track. A station
    /// with no place on it (NaN, or infinite on a closed track) maps to the
    /// start.
    fn wrap_station(&self, s: f64) -> f64 {
        let s = if self.closed {
            s.rem_euclid(self.length())
        } else {
            s.clamp(0.0, self.length())
        };
        if s.is_nan() {
            0.0
        } else {
            s
        }
    }

    /// Point on the path at arc-length station `s` (clamped for open tracks,
    /// wrapped for closed tracks).
    pub fn point_at(&self, s: f64) -> Vec2 {
        let s = self.wrap_station(s);
        let open_len = *self.stations.last().expect("non-empty");
        if self.closed && s >= open_len {
            let last = *self.points.last().expect("non-empty");
            let close_len = last.distance(self.points[0]).max(1e-12);
            return last.lerp(self.points[0], (s - open_len) / close_len);
        }
        let idx = self.stations.partition_point(|&x| x <= s);
        if idx >= self.points.len() {
            return *self.points.last().expect("non-empty");
        }
        let i = idx - 1;
        let seg = self.stations[idx] - self.stations[i];
        let alpha = if seg > 0.0 {
            (s - self.stations[i]) / seg
        } else {
            0.0
        };
        self.points[i].lerp(self.points[idx], alpha)
    }

    /// Tangent heading at station `s` (rad).
    pub fn heading_at(&self, s: f64) -> f64 {
        self.sample_scalar(s, &self.headings, true)
    }

    /// Signed curvature at station `s` (1/m); positive = turning left.
    pub fn curvature_at(&self, s: f64) -> f64 {
        self.sample_scalar(s, &self.curvatures, false)
    }

    fn sample_scalar(&self, s: f64, values: &[f64], angular: bool) -> f64 {
        let s = self.wrap_station(s);
        let open_len = *self.stations.last().expect("non-empty");
        if self.closed && s >= open_len {
            return values[0];
        }
        let idx = self.stations.partition_point(|&x| x <= s);
        if idx >= values.len() {
            return *values.last().expect("non-empty");
        }
        let i = idx - 1;
        let seg = self.stations[idx] - self.stations[i];
        let alpha = if seg > 0.0 {
            (s - self.stations[i]) / seg
        } else {
            0.0
        };
        if angular {
            wrap_angle(values[i] + alpha * wrap_angle(values[idx] - values[i]))
        } else {
            values[i] + alpha * (values[idx] - values[i])
        }
    }

    /// Projects `point` onto the track: nearest station, signed cross-track
    /// offset and local tangent heading.
    ///
    /// The nearest segment is the first-indexed one at the least squared
    /// distance, exactly as a scan over every segment would find it;
    /// bounding boxes over runs of segments only prune segments that
    /// cannot win. A point no segment is at a finite distance from (NaN or
    /// infinite coordinates) projects to the start of the track with zero
    /// offset.
    pub fn project(&self, point: impl Into<Vec2>) -> Projection {
        let point = point.into();
        let Some(i) = self.nearest_segment(point) else {
            return Projection {
                station: 0.0,
                cross_track: 0.0,
                heading: self.headings[0],
                point: self.points[0],
            };
        };
        let foot = self.foot(i, point);
        let seg_len = foot.len_sq.sqrt();
        let station = self.stations[i] + foot.t * seg_len;
        let tangent = if seg_len > 0.0 {
            foot.ab * (1.0 / seg_len)
        } else {
            Vec2::from_angle(self.headings[i])
        };
        Projection {
            station,
            cross_track: tangent.cross(point - foot.point),
            heading: tangent.angle(),
            point: foot.point,
        }
    }

    /// Index of the segment minimising `(d2, index)` over every segment with
    /// a finite squared distance `d2`, or `None` when there is none.
    ///
    /// The chunk whose box is nearest seeds the best distance; every other
    /// chunk is visited unless its box is farther than that by
    /// [`PRUNE_MARGIN`]. Boxes are padded well beyond the rounding of a
    /// foot point (`a + (b - a) * t`), so a skipped chunk's segments all
    /// compute a strictly larger `d2` than the best one: skipping never
    /// changes the minimum or its tie-break.
    fn nearest_segment(&self, point: Vec2) -> Option<usize> {
        let chunks = self.chunks.len();
        let seed = (0..chunks)
            .map(|c| (c, self.chunks[c].dist_sq(point)))
            .fold(
                (0, f64::INFINITY),
                |best, cur| if cur.1 < best.1 { cur } else { best },
            )
            .0;
        let segments = self.segment_count();
        let (mut best_d2, mut best_i) = (f64::INFINITY, usize::MAX);
        for c in std::iter::once(seed).chain((0..chunks).filter(|&c| c != seed)) {
            if self.chunks[c].dist_sq(point) > best_d2 * (1.0 + PRUNE_MARGIN) {
                continue;
            }
            for i in c * CHUNK..((c + 1) * CHUNK).min(segments) {
                let d2 = self.foot(i, point).d2;
                // `d2 < INFINITY` also rejects NaN, as the plain scan's
                // `d2 < best_d2` did while `best_d2` was still infinite.
                if d2 < f64::INFINITY && (d2 < best_d2 || (d2 == best_d2 && i < best_i)) {
                    best_d2 = d2;
                    best_i = i;
                }
            }
        }
        (best_i != usize::MAX).then_some(best_i)
    }

    /// Number of segments: closed tracks add the closing one.
    fn segment_count(&self) -> usize {
        if self.closed {
            self.points.len()
        } else {
            self.points.len() - 1
        }
    }

    /// The closest point on segment `i` to `point`. These expressions are
    /// the projection's definition: the search and the final
    /// [`Projection`] both take their numbers from here.
    fn foot(&self, i: usize, point: Vec2) -> Foot {
        let a = self.points[i];
        let b = self.points[(i + 1) % self.points.len()];
        let ab = b - a;
        let len_sq = ab.norm_sq();
        let t = if len_sq > 0.0 {
            ((point - a).dot(ab) / len_sq).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let on_segment = a.lerp(b, t);
        Foot {
            ab,
            len_sq,
            t,
            point: on_segment,
            d2: point.distance(on_segment).powi(2),
        }
    }
}

/// Segments per bounding box of the projection index.
const CHUNK: usize = 16;

/// Relative slack on the best squared distance before a chunk is pruned;
/// many orders of magnitude above the few ulps of rounding in a box or
/// segment distance.
const PRUNE_MARGIN: f64 = 1e-9;

/// Closest point on one segment, with the intermediate values the
/// projection reuses.
struct Foot {
    ab: Vec2,
    len_sq: f64,
    t: f64,
    point: Vec2,
    d2: f64,
}

/// Axis-aligned box around a run of consecutive segments, padded so that
/// any rounded foot point on them lies well inside it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bounds {
    min: Vec2,
    max: Vec2,
}

impl Bounds {
    fn around(points: impl Iterator<Item = Vec2>) -> Self {
        let inf = Vec2::new(f64::INFINITY, f64::INFINITY);
        let (min, max) = points.fold((inf, -inf), |(lo, hi), p| {
            (
                Vec2::new(lo.x.min(p.x), lo.y.min(p.y)),
                Vec2::new(hi.x.max(p.x), hi.y.max(p.y)),
            )
        });
        let magnitude = min
            .x
            .abs()
            .max(min.y.abs())
            .max(max.x.abs())
            .max(max.y.abs());
        let pad = 1e-9 * (1.0 + magnitude);
        Bounds {
            min: min - Vec2::new(pad, pad),
            max: max + Vec2::new(pad, pad),
        }
    }

    /// Squared distance from `p` to the box (0 inside). NaN coordinates
    /// give 0, so such a point prunes nothing.
    fn dist_sq(&self, p: Vec2) -> f64 {
        let dx = (self.min.x - p.x).max(p.x - self.max.x).max(0.0);
        let dy = (self.min.y - p.y).max(p.y - self.max.y).max(0.0);
        dx * dx + dy * dy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn line_length_and_sampling() {
        let t = Track::line([0.0, 0.0], [100.0, 0.0], 1.0).unwrap();
        assert!((t.length() - 100.0).abs() < 1e-9);
        let p = t.point_at(50.0);
        assert!((p.x - 50.0).abs() < 1e-9 && p.y.abs() < 1e-12);
        assert!(t.heading_at(50.0).abs() < 1e-12);
        assert!(t.curvature_at(50.0).abs() < 1e-12);
        assert!(!t.is_closed());
    }

    #[test]
    fn point_at_clamps_open_track() {
        let t = Track::line([0.0, 0.0], [10.0, 0.0], 1.0).unwrap();
        assert_eq!(t.point_at(-5.0), Vec2::new(0.0, 0.0));
        let end = t.point_at(50.0);
        assert!((end.x - 10.0).abs() < 1e-9);
    }

    #[test]
    fn circle_geometry() {
        let t = Track::circle([0.0, 0.0], 20.0, 1.0).unwrap();
        assert!(t.is_closed());
        let expected = std::f64::consts::TAU * 20.0;
        assert!(
            (t.length() - expected).abs() < 0.5,
            "len {} vs {expected}",
            t.length()
        );
        // Quarter way round the circle the heading is +90° from the start.
        let h0 = t.heading_at(0.0);
        let hq = t.heading_at(t.length() / 4.0);
        assert!((wrap_angle(hq - h0) - FRAC_PI_2).abs() < 0.05);
        // Curvature ≈ 1/r everywhere, positive (counter-clockwise). Local
        // resampling seams cause up to ~20 % error, so check each sample
        // loosely and the mean tightly.
        let ks: Vec<f64> = (0..10)
            .map(|i| t.curvature_at(t.length() * f64::from(i) / 10.0))
            .collect();
        for &k in &ks {
            assert!((k - 0.05).abs() < 0.015, "curvature {k}");
        }
        let mean = ks.iter().sum::<f64>() / ks.len() as f64;
        assert!((mean - 0.05).abs() < 0.005, "mean curvature {mean}");
    }

    #[test]
    fn closed_track_wraps_station() {
        let t = Track::circle([0.0, 0.0], 10.0, 0.5).unwrap();
        let len = t.length();
        let a = t.point_at(1.0);
        let b = t.point_at(1.0 + len);
        assert!(a.distance(b) < 1e-6);
    }

    #[test]
    fn projection_on_straight_line() {
        let t = Track::line([0.0, 0.0], [100.0, 0.0], 1.0).unwrap();
        let p = t.project([30.0, 2.0]);
        assert!((p.station - 30.0).abs() < 1e-9);
        assert!((p.cross_track - 2.0).abs() < 1e-9, "left is positive");
        let p = t.project([30.0, -2.0]);
        assert!((p.cross_track + 2.0).abs() < 1e-9, "right is negative");
        assert!(p.heading.abs() < 1e-12);
    }

    #[test]
    fn projection_clamps_to_endpoints() {
        let t = Track::line([0.0, 0.0], [10.0, 0.0], 1.0).unwrap();
        let p = t.project([-5.0, 1.0]);
        assert_eq!(p.station, 0.0);
        let p = t.project([50.0, 0.0]);
        assert!((p.station - 10.0).abs() < 1e-9);
    }

    #[test]
    fn projection_on_circle_points_inward_outward() {
        let t = Track::circle([0.0, 0.0], 20.0, 0.5).unwrap();
        // A point outside the counter-clockwise circle lies to the *right*
        // of the travel direction → negative cross-track.
        let p = t.project([25.0, 0.0]);
        assert!(p.cross_track < -4.0, "{}", p.cross_track);
        let p = t.project([15.0, 0.0]);
        assert!(p.cross_track > 4.0, "{}", p.cross_track);
    }

    #[test]
    fn non_finite_stations_sample_the_track_start() {
        let line = Track::line([0.0, 0.0], [10.0, 0.0], 1.0).unwrap();
        let circle = Track::circle([0.0, 0.0], 10.0, 0.5).unwrap();
        for t in [&line, &circle] {
            let bad = if t.is_closed() {
                vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            } else {
                vec![f64::NAN]
            };
            for s in bad {
                assert_eq!(t.point_at(s), t.point_at(0.0), "point_at({s})");
                assert_eq!(t.heading_at(s), t.heading_at(0.0), "heading_at({s})");
                assert_eq!(t.curvature_at(s), t.curvature_at(0.0), "curvature_at({s})");
            }
        }
        // Open tracks still clamp infinite stations to their ends.
        assert_eq!(line.point_at(f64::INFINITY), line.point_at(line.length()));
        assert_eq!(line.point_at(f64::NEG_INFINITY), line.point_at(0.0));
    }

    #[test]
    fn projection_ties_keep_the_first_segment() {
        // Vertex 16 ends segment 15, the last of the first index chunk, and
        // starts segment 16, the first of the next. A point straight above
        // it is equally near both; it lies inside the second chunk's box
        // (the path turns north at x = 20), so that chunk is searched
        // first, and the lower index must still win.
        let t = Track::from_waypoints([[0.0, 0.0], [20.0, 0.0], [20.0, 40.0]], 1.0, false).unwrap();
        let point = Vec2::new(16.0, 3.0);
        assert_eq!(t.points()[16], Vec2::new(16.0, 0.0));
        assert!(t.chunks[1].dist_sq(point) < t.chunks[0].dist_sq(point));
        assert_eq!(t.nearest_segment(point), Some(15));
        let p = t.project(point);
        assert_eq!(p.point, t.points()[16]);
        assert_eq!(p.cross_track, 3.0);
    }

    #[test]
    fn rounded_foot_points_beyond_their_segment_are_still_found() {
        // Segment 15 runs east from x = -3.9 to 1.8, ending its index
        // chunk. Its foot point at t = 1 rounds to x = 1.8000000000000003,
        // past its own end vertex and past every point of its chunk. A
        // vertex of a later chunk sits exactly there, so both are at
        // d2 = 0 and segment 15 must win. Only the box padding keeps its
        // chunk from being pruned against that zero.
        let mut points: Vec<Vec2> = (0..16)
            .map(|i| Vec2::new(-3.9 - f64::from(15 - i), 0.0))
            .collect();
        points.extend((0..=16).map(|k| Vec2::new(1.8, f64::from(k))));
        let foot = points[15].lerp(points[16], 1.0);
        assert!(foot.x > 1.8, "premise: the foot point rounds outward");
        points.extend([foot, Vec2::new(foot.x, -10.0)]);
        let t = Track::from_resampled(points, false);
        assert_eq!(t.nearest_segment(foot), Some(15));
        assert_eq!(t.project(foot).point, foot);
    }

    #[test]
    fn non_finite_points_project_to_the_track_start() {
        let t = Track::circle([0.0, 0.0], 20.0, 1.0).unwrap();
        for p in [
            [f64::NAN, 0.0],
            [f64::INFINITY, 1.0],
            [0.0, f64::NEG_INFINITY],
        ] {
            let proj = t.project(p);
            assert_eq!(proj.station, 0.0);
            assert_eq!(proj.cross_track, 0.0);
            assert_eq!(proj.heading, t.headings[0]);
            assert_eq!(proj.point, t.points[0]);
        }
    }

    #[test]
    fn invalid_tracks_are_rejected() {
        assert!(matches!(
            Track::line([0.0, 0.0], [0.0, 0.0], 1.0),
            Err(SimError::InvalidTrack(_))
        ));
        assert!(matches!(
            Track::line([0.0, 0.0], [10.0, 0.0], 0.0),
            Err(SimError::InvalidTrack(_))
        ));
        assert!(matches!(
            Track::line([f64::NAN, 0.0], [10.0, 0.0], 1.0),
            Err(SimError::InvalidTrack(_))
        ));
        assert!(matches!(
            Track::circle([0.0, 0.0], -1.0, 1.0),
            Err(SimError::InvalidTrack(_))
        ));
        assert!(matches!(
            Track::from_waypoints(Vec::<Vec2>::new(), 1.0, false),
            Err(SimError::InvalidTrack(_))
        ));
    }

    #[test]
    fn multi_segment_polyline_headings() {
        // L-shaped path: east then north.
        let t = Track::from_waypoints([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]], 0.5, false).unwrap();
        assert!(t.heading_at(2.0).abs() < 1e-6);
        assert!((t.heading_at(18.0) - FRAC_PI_2).abs() < 1e-6);
        assert!((t.length() - 20.0).abs() < 0.5);
        // Curvature spikes positive (left turn) around the corner.
        let k = t.curvature_at(10.0);
        assert!(k > 0.1, "corner curvature {k}");
    }

    #[test]
    fn stations_monotone_and_bounded() {
        let t = Track::circle([5.0, -3.0], 15.0, 1.0).unwrap();
        let mut prev = -1.0;
        for i in 0..t.points().len() {
            let s = t.stations[i];
            assert!(s > prev);
            prev = s;
        }
        assert!(prev <= t.length());
    }

    #[test]
    fn heading_interpolation_handles_wraparound() {
        // Path crossing the ±pi heading boundary: heading west, slightly
        // turning. Build a nearly-straight westward line.
        let t =
            Track::from_waypoints([[0.0, 0.0], [-50.0, 0.1], [-100.0, 0.0]], 1.0, false).unwrap();
        let h = t.heading_at(t.length() / 2.0);
        assert!(
            (h.abs() - PI).abs() < 0.1,
            "heading should be ~±pi, got {h}"
        );
    }
}
