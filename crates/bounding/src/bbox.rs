//! The 2-D cloaked rectangle from four directional 1-D secure bounds.
//!
//! The paper presents the protocol for a scalar attribute ξ and notes the
//! identifier is "without loss of generality" scalar (§V). A rectangular
//! cloaked region needs four scalar bounds: upper bounds on `x` and `y`, and
//! lower bounds obtained by upper-bounding the *negated* coordinates. Each
//! directional run starts from the host's own coordinate — the region must
//! cover the host anyway, so this anchor reveals nothing beyond the final
//! region itself.

use crate::protocol::{
    progressive_upper_bound_with, BoundingError, BoundingRun, IncrementPolicy, LocalValues,
    VerifyTransport,
};
use nela_geo::{Point, Rect};

/// The four directional runs and the assembled region.
#[derive(Debug, Clone)]
pub struct BboxOutcome {
    /// The cloaked region (clipped to the domain rectangle).
    pub rect: Rect,
    /// Total verification messages across the four runs.
    pub messages: u64,
    /// Total rounds across the four runs.
    pub rounds: usize,
    /// The individual runs: `[x-high, x-low, y-high, y-low]` (the low runs
    /// operate on negated coordinates).
    pub runs: [BoundingRun; 4],
}

/// One of the four directional runs a cloaked rectangle is assembled from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Upper bound on `x`.
    XHigh,
    /// Lower bound on `x` (an upper bound on `-x`).
    XLow,
    /// Upper bound on `y`.
    YHigh,
    /// Lower bound on `y` (an upper bound on `-y`).
    YLow,
}

impl Direction {
    /// The private value a member at `p` answers for in this run: its
    /// coordinate, negated for the low runs.
    pub fn value(self, p: Point) -> f64 {
        match self {
            Direction::XHigh => p.x,
            Direction::XLow => -p.x,
            Direction::YHigh => p.y,
            Direction::YLow => -p.y,
        }
    }

    /// The public lower end of this run's value domain.
    fn domain_min(self, domain: Rect) -> f64 {
        match self {
            Direction::XHigh => domain.min_x,
            Direction::XLow => -domain.max_x,
            Direction::YHigh => domain.min_y,
            Direction::YLow => -domain.max_y,
        }
    }
}

/// One directional run, handed a transport that reaches every member.
pub type DirectionalRun<'r> =
    dyn FnMut(&mut dyn VerifyTransport) -> Result<BoundingRun, BoundingError> + 'r;

/// The four-direction assembly: runs secure bounding in the `x`-high,
/// `x`-low, `y`-high and `y`-low directions, each anchored at the host's own
/// value in that direction with a fresh policy from `policy_factory`
/// (policies may carry per-run state), then clips the bounds to `domain`
/// and sums messages and rounds.
///
/// `reach(direction, run)` decides how a run reaches the participants: it
/// must call `run` once with a transport over every member's
/// [`Direction::value`] — a local array for [`secure_bounding_box`], one RPC
/// per question over a simulated radio in `nela-netsim`.
///
/// # Errors
/// [`BoundingError::EmptyCluster`] when the transport has no participants,
/// plus any failure of the four directional runs (unreachable participant,
/// misbehaving policy).
pub fn bounding_box_with(
    host: Point,
    domain: Rect,
    mut policy_factory: impl FnMut() -> Box<dyn IncrementPolicy>,
    mut reach: impl FnMut(Direction, &mut DirectionalRun<'_>) -> Result<BoundingRun, BoundingError>,
) -> Result<BboxOutcome, BoundingError> {
    let mut bound = |direction: Direction| {
        let x0 = direction.value(host);
        let domain_min = direction.domain_min(domain);
        let mut policy = policy_factory();
        reach(direction, &mut |transport| {
            progressive_upper_bound_with(transport, x0, domain_min, policy.as_mut())
        })
    };
    let x_hi = bound(Direction::XHigh)?;
    let x_lo = bound(Direction::XLow)?;
    let y_hi = bound(Direction::YHigh)?;
    let y_lo = bound(Direction::YLow)?;

    let rect = Rect::new(
        (-x_lo.bound).clamp(domain.min_x, domain.max_x),
        (-y_lo.bound).clamp(domain.min_y, domain.max_y),
        x_hi.bound.clamp(domain.min_x, domain.max_x),
        y_hi.bound.clamp(domain.min_y, domain.max_y),
    );
    let messages = x_hi.messages + x_lo.messages + y_hi.messages + y_lo.messages;
    let rounds = x_hi.rounds + x_lo.rounds + y_hi.rounds + y_lo.rounds;
    Ok(BboxOutcome {
        rect,
        messages,
        rounds,
        runs: [x_hi, x_lo, y_hi, y_lo],
    })
}

/// Runs secure bounding in all four directions over the cluster members'
/// `points`, anchored at the host's own position, and assembles the cloaked
/// rectangle ([`bounding_box_with`] over in-memory values).
///
/// # Errors
/// [`BoundingError::EmptyCluster`] on an empty member list, plus any failure
/// of the four directional runs — a malformed cluster degrades the single
/// request instead of aborting the process.
pub fn secure_bounding_box(
    points: &[Point],
    host: Point,
    domain: Rect,
    policy_factory: impl FnMut() -> Box<dyn IncrementPolicy>,
) -> Result<BboxOutcome, BoundingError> {
    let mut values = Vec::with_capacity(points.len());
    bounding_box_with(host, domain, policy_factory, |direction, run| {
        values.clear();
        values.extend(points.iter().map(|&p| direction.value(p)));
        run(&mut LocalValues::new(&values))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::LinearPolicy;

    fn cluster() -> Vec<Point> {
        vec![
            Point::new(0.30, 0.40),
            Point::new(0.35, 0.42),
            Point::new(0.28, 0.47),
            Point::new(0.33, 0.38),
        ]
    }

    #[test]
    fn region_covers_every_member() {
        let pts = cluster();
        let out = secure_bounding_box(&pts, pts[0], Rect::UNIT, || {
            Box::new(LinearPolicy::new(0.01))
        })
        .unwrap();
        for p in &pts {
            assert!(out.rect.contains(p), "{p:?} outside {:?}", out.rect);
        }
    }

    #[test]
    fn region_contains_tight_bbox_with_bounded_slack() {
        let pts = cluster();
        let step = 0.005;
        let out = secure_bounding_box(&pts, pts[0], Rect::UNIT, || {
            Box::new(LinearPolicy::new(step))
        })
        .unwrap();
        let tight = Rect::bounding(&pts).unwrap();
        assert!(out.rect.contains_rect(&tight));
        assert!(out.rect.width() <= tight.width() + 2.0 * step + 1e-12);
        assert!(out.rect.height() <= tight.height() + 2.0 * step + 1e-12);
    }

    #[test]
    fn region_clipped_to_domain() {
        let pts = vec![Point::new(0.99, 0.99), Point::new(0.97, 0.98)];
        let out = secure_bounding_box(&pts, pts[0], Rect::UNIT, || {
            Box::new(LinearPolicy::new(0.05))
        })
        .unwrap();
        assert!(out.rect.max_x <= 1.0 && out.rect.max_y <= 1.0);
        assert!(Rect::UNIT.contains_rect(&out.rect));
    }

    #[test]
    fn messages_are_summed_over_four_runs() {
        let pts = cluster();
        let out = secure_bounding_box(&pts, pts[0], Rect::UNIT, || {
            Box::new(LinearPolicy::new(0.5))
        })
        .unwrap();
        // Step 0.5 covers each direction in one round of 4 messages.
        assert_eq!(out.rounds, 4);
        assert_eq!(out.messages, 16);
    }

    #[test]
    fn empty_cluster_is_a_typed_error() {
        let err = secure_bounding_box(&[], Point::new(0.5, 0.5), Rect::UNIT, || {
            Box::new(LinearPolicy::new(0.05))
        })
        .unwrap_err();
        assert_eq!(err, BoundingError::EmptyCluster);
    }

    #[test]
    fn host_is_always_inside() {
        let pts = cluster();
        let host = pts[2];
        let out = secure_bounding_box(&pts, host, Rect::UNIT, || Box::new(LinearPolicy::new(0.02)))
            .unwrap();
        assert!(out.rect.contains(&host));
    }
}
