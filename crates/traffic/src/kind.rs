//! Enum dispatch over the built-in traffic sources.

use crate::generator::StochasticSource;
use crate::replay::ReplaySource;
use crate::saturate::SaturateSource;
use socsim::{BacklogPolls, Cycle, TrafficSource, Transaction};
use std::fmt;

/// Enum dispatch over the built-in [`TrafficSource`] implementations.
///
/// The simulator polls a source on every cycle its horizon is due; with
/// the sources stored as this enum the poll is a direct call the
/// compiler can inline, instead of a `Box<dyn TrafficSource>` vtable
/// hop per master per cycle. [`SourceKind::Custom`] keeps arbitrary
/// user sources pluggable at the old cost.
///
/// Every variant defers to the wrapped source for all trait methods, so
/// wrapping never changes the generated traffic.
pub enum SourceKind {
    /// Seeded stochastic generator ([`StochasticSource`]).
    Stochastic(StochasticSource),
    /// Explicit `(cycle, words)` trace playback ([`ReplaySource`]).
    Replay(ReplaySource),
    /// Always-requesting saturation probe ([`SaturateSource`]).
    Saturate(SaturateSource),
    /// Any other [`TrafficSource`], dispatched virtually.
    Custom(Box<dyn TrafficSource>),
}

impl fmt::Debug for SourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceKind::Stochastic(s) => f.debug_tuple("Stochastic").field(s).finish(),
            SourceKind::Replay(_) => f.debug_tuple("Replay").finish(),
            SourceKind::Saturate(s) => f.debug_tuple("Saturate").field(s).finish(),
            SourceKind::Custom(_) => f.debug_tuple("Custom").finish(),
        }
    }
}

macro_rules! for_each_source {
    ($self:ident, $inner:ident => $body:expr) => {
        match $self {
            SourceKind::Stochastic($inner) => $body,
            SourceKind::Replay($inner) => $body,
            SourceKind::Saturate($inner) => $body,
            SourceKind::Custom($inner) => $body,
        }
    };
}

impl TrafficSource for SourceKind {
    #[inline]
    fn poll(&mut self, now: Cycle) -> Option<Transaction> {
        for_each_source!(self, inner => inner.poll(now))
    }

    #[inline]
    fn poll_with_backlog(&mut self, now: Cycle, backlog: usize) -> Option<Transaction> {
        for_each_source!(self, inner => inner.poll_with_backlog(now, backlog))
    }

    #[inline]
    fn next_event(&self, now: Cycle) -> Cycle {
        for_each_source!(self, inner => inner.next_event(now))
    }

    #[inline]
    fn backlog_polls(&self) -> BacklogPolls {
        for_each_source!(self, inner => inner.backlog_polls())
    }
}

impl From<StochasticSource> for SourceKind {
    fn from(source: StochasticSource) -> Self {
        SourceKind::Stochastic(source)
    }
}

impl From<ReplaySource> for SourceKind {
    fn from(source: ReplaySource) -> Self {
        SourceKind::Replay(source)
    }
}

impl From<SaturateSource> for SourceKind {
    fn from(source: SaturateSource) -> Self {
        SourceKind::Saturate(source)
    }
}

impl From<Box<dyn TrafficSource>> for SourceKind {
    fn from(source: Box<dyn TrafficSource>) -> Self {
        SourceKind::Custom(source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size::SizeDist;
    use crate::spec::GeneratorSpec;

    #[test]
    fn enum_and_boxed_sources_emit_the_identical_stream() {
        let spec = GeneratorSpec::bursty(2, 5, 1, 40, 120, 3, SizeDist::uniform(1, 16));
        let mut direct = spec.build_kind(77);
        let mut boxed = SourceKind::Custom(spec.build_source(77));
        assert_eq!(direct.backlog_polls(), BacklogPolls::Defer);
        assert_eq!(boxed.backlog_polls(), BacklogPolls::Defer, "the box forwards the contract");
        for c in 0..5_000u64 {
            let now = Cycle::new(c);
            assert_eq!(direct.next_event(now), boxed.next_event(now), "horizon at {c}");
            let a = direct.poll_with_backlog(now, 0);
            let b = boxed.poll_with_backlog(now, 0);
            assert_eq!(a, b, "emission at {c}");
        }
    }

    #[test]
    fn replay_and_saturate_variants_delegate() {
        let mut replay = SourceKind::from(ReplaySource::new(0, &[(3, 4)]));
        assert_eq!(replay.backlog_polls(), BacklogPolls::Defer);
        assert!(replay.poll(Cycle::new(2)).is_none());
        assert_eq!(replay.poll(Cycle::new(3)).expect("due").words(), 4);
        let mut saturate = SourceKind::from(SaturateSource::new(0, 8));
        assert_eq!(saturate.backlog_polls(), BacklogPolls::Elide);
        assert!(saturate.poll_with_backlog(Cycle::ZERO, 0).is_some());
        assert!(saturate.poll_with_backlog(Cycle::new(1), 2).is_none());
    }
}
