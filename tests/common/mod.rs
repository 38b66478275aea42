//! Helpers shared by the integration tests that drive `pibe-serve`.

use pibe_profile::Profile;

/// Hot direct call sites the stream's hot-spot drift rotates through.
const DRIFT_SITES: usize = 16;
/// Their count in the stream's base profile: a multiple of every modulus
/// (2 to 8) the stream thins call-edge counts with, so clean shard reports
/// carry no call-edge weight and leave the decision surface unchanged.
const EDGE_COUNT: u64 = 840;

/// The profile a `DeltaStream` thins into shard reports: the training
/// profile's return counts (which feed no build decision) plus its
/// hottest direct sites at [`EDGE_COUNT`]. Clean epochs then take the
/// fast path and only the stream's periodic hot-spot boost forces a
/// rebuild.
pub fn stream_base(training: &Profile) -> Profile {
    let mut base = Profile::new();
    for (f, count) in training.iter_returns() {
        (0..count).for_each(|_| base.record_return(f));
    }
    let mut hot: Vec<_> = training.iter_direct().collect();
    hot.sort_by_key(|&(site, count)| (std::cmp::Reverse(count), site));
    for (site, _) in hot.into_iter().take(DRIFT_SITES) {
        (0..EDGE_COUNT).for_each(|_| base.record_direct(site));
    }
    base
}
