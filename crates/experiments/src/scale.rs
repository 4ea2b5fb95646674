//! Experiment sizing.

/// Sizes for one full reproduction pass.
///
/// `large` plays the paper's 100,000-node overlay, `huge` the 1,000,000-node
/// one. Dynamic scenarios run on `large` (as in the paper, "dynamic
/// environment was created on 100,000 node graphs for practical
/// considerations").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Stand-in for the paper's 100k overlay.
    pub large: usize,
    /// Stand-in for the paper's 1M overlay.
    pub huge: usize,
    /// Rounds of the dynamic Aggregation figures (paper: 10,000).
    pub agg_dynamic_rounds: u64,
    /// Replications ("Estimation #1..#3" curves) for dynamic figures.
    pub replications: usize,
    /// Overlay size for the message-level network figures (19/20): every
    /// hop is a simulated event there, so these run smaller than `large`.
    pub net_nodes: usize,
}

impl ExperimentScale {
    /// The paper's exact sizes. A full `--all` pass at this scale takes tens
    /// of minutes on a laptop-class machine.
    pub fn paper() -> Self {
        ExperimentScale {
            large: 100_000,
            huge: 1_000_000,
            agg_dynamic_rounds: 10_000,
            replications: 3,
            net_nodes: 20_000,
        }
    }

    /// A 10×-reduced scale preserving every qualitative shape; the default
    /// for the `repro` CLI.
    pub fn small() -> Self {
        ExperimentScale {
            large: 10_000,
            huge: 100_000,
            agg_dynamic_rounds: 4_000,
            replications: 3,
            net_nodes: 5_000,
        }
    }

    /// Minimal scale for smoke tests.
    pub fn tiny() -> Self {
        ExperimentScale {
            large: 2_000,
            huge: 5_000,
            agg_dynamic_rounds: 400,
            replications: 2,
            net_nodes: 1_200,
        }
    }

    /// The million-node free-form scale: every message-level run gets the
    /// paper's full 1M overlay, a short horizon, and one replication —
    /// the north-star stress configuration the calendar-queue/arena/pool
    /// hot path exists for. Runs at this scale enable overlay slot reuse
    /// (bounded memory under churn). Use with free-form `repro run
    /// --protocol ...`; regenerating whole figures here is deliberately
    /// out of scope.
    pub fn huge() -> Self {
        ExperimentScale {
            large: 1_000_000,
            huge: 1_000_000,
            agg_dynamic_rounds: 200,
            replications: 1,
            net_nodes: 1_000_000,
        }
    }

    /// CI's bounded-memory smoke of the million-node path: 200k nodes,
    /// short horizon, one replication (see the `huge-smoke` CI job, which
    /// also asserts an RSS ceiling on the run).
    pub fn huge_smoke() -> Self {
        ExperimentScale {
            large: 200_000,
            huge: 200_000,
            agg_dynamic_rounds: 100,
            replications: 1,
            net_nodes: 200_000,
        }
    }

    /// Parses a scale name (`paper`, `small`, `tiny`, `huge`,
    /// `huge-smoke`).
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "paper" => Some(Self::paper()),
            "small" => Some(Self::small()),
            "tiny" => Some(Self::tiny()),
            "huge" => Some(Self::huge()),
            "huge-smoke" => Some(Self::huge_smoke()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_scales_resolve() {
        assert_eq!(
            ExperimentScale::by_name("paper"),
            Some(ExperimentScale::paper())
        );
        assert_eq!(
            ExperimentScale::by_name("small"),
            Some(ExperimentScale::small())
        );
        assert_eq!(
            ExperimentScale::by_name("tiny"),
            Some(ExperimentScale::tiny())
        );
        assert_eq!(
            ExperimentScale::by_name("huge"),
            Some(ExperimentScale::huge())
        );
        assert_eq!(
            ExperimentScale::by_name("huge-smoke"),
            Some(ExperimentScale::huge_smoke())
        );
        assert_eq!(ExperimentScale::by_name("bogus"), None);
    }

    #[test]
    fn huge_scales_hit_the_north_star_sizes() {
        assert_eq!(ExperimentScale::huge().net_nodes, 1_000_000);
        assert_eq!(ExperimentScale::huge().replications, 1);
        assert_eq!(ExperimentScale::huge_smoke().net_nodes, 200_000);
    }

    #[test]
    fn paper_scale_matches_the_paper() {
        let s = ExperimentScale::paper();
        assert_eq!(s.large, 100_000);
        assert_eq!(s.huge, 1_000_000);
        assert_eq!(s.agg_dynamic_rounds, 10_000);
        assert_eq!(s.replications, 3);
    }

    #[test]
    fn smaller_scales_shrink_monotonically() {
        let (p, s, t) = (
            ExperimentScale::paper(),
            ExperimentScale::small(),
            ExperimentScale::tiny(),
        );
        assert!(p.large > s.large && s.large > t.large);
        assert!(p.huge > s.huge && s.huge > t.huge);
        assert!(p.net_nodes > s.net_nodes && s.net_nodes > t.net_nodes);
    }
}
