//! Configuration for an hFAD instance.

use hfad_osd::{CheckpointConfig, StoreConfig};
use hfad_storage::{GroupCommitConfig, RetryPolicy};

/// Number of shards in the key/value and full-text indices (and in the
/// POSIX veneer's parent index).
pub const INDEX_SHARDS: usize = 16;

/// Configuration for [`Hfad`](crate::fs::Hfad).
///
/// There is one stack: the background-job engine carries every
/// background service (read-ahead, lazy full-text indexing, checkpoint
/// drains), the block cache is fronted by a decoded-node cache a quarter
/// its size, and a transactional store always runs the watermark
/// checkpointer. Full-text indexing is always lazy (§3.4): queries may
/// lag writes until [`Hfad::sync_index`](crate::fs::Hfad::sync_index).
/// Ablation baselines (inline indexing, shard counts, extent sizes,
/// cache stripes, group-commit policies, engine worker counts) are built
/// at their own layer from `hfad_index::FullTextIndex`, [`StoreConfig`],
/// [`GroupCommitConfig`] and `hfad_engine::Engine::with_workers`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HfadConfig {
    /// Blocks reserved for the write-ahead journal. `0` gives an
    /// in-memory store no journal and a file-backed store the persistent
    /// layer's default ring.
    pub journal_blocks: u64,
    /// Block-cache capacity in blocks. `0` runs directly on the device;
    /// any other value fronts it with the storage layer's sharded
    /// write-back block cache plus a decoded B-tree node cache of
    /// `cache_blocks / 4` pages. The default is 4096 blocks (16 MiB at the
    /// default block size).
    pub cache_blocks: usize,
    /// Attempt budget for transient device faults (`StorageError::
    /// TransientIo`), applied uniformly to group-commit journal flushes,
    /// checkpoints and cache read fills (which read-ahead populates go
    /// through). Engine jobs run once; a job that retries owns it. `0`
    /// (the default) keeps each layer's standard policy
    /// ([`hfad_storage::RetryPolicy::standard`]: 5 attempts, exponential
    /// backoff from 1 ms); `1` disables retries; larger values deepen the
    /// budget — what the chaos soak uses to statistically outlast high
    /// injected fault rates.
    pub retry_attempts: u32,
}

impl Default for HfadConfig {
    fn default() -> Self {
        HfadConfig {
            journal_blocks: 0,
            cache_blocks: 4096,
            retry_attempts: 0,
        }
    }
}

impl HfadConfig {
    /// The transient-fault retry policy implied by
    /// [`retry_attempts`](Self::retry_attempts): `None` when `0` (each
    /// layer keeps its own default).
    pub fn retry_policy(&self) -> Option<RetryPolicy> {
        (self.retry_attempts > 0).then(|| RetryPolicy {
            max_attempts: self.retry_attempts,
            ..RetryPolicy::standard()
        })
    }

    /// Derives the OSD store configuration.
    pub fn store_config(&self) -> StoreConfig {
        StoreConfig {
            journal_blocks: self.journal_blocks,
            cache_blocks: self.cache_blocks,
            ..Default::default()
        }
    }

    /// Derives the group-commit policy for a transactional store layered
    /// over this instance's object store.
    pub fn group_commit_config(&self) -> GroupCommitConfig {
        GroupCommitConfig {
            retry: self.retry_policy().unwrap_or_default(),
            ..Default::default()
        }
    }

    /// Derives the background-checkpoint policy.
    pub fn checkpoint_config(&self) -> CheckpointConfig {
        CheckpointConfig {
            retry: self.retry_policy().unwrap_or_default(),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use hfad_osd::DEFAULT_MAX_EXTENT_BYTES;

    use super::*;

    #[test]
    fn defaults_are_the_full_stack() {
        let c = HfadConfig::default();
        assert_eq!(c.retry_attempts, 0);
        // The derived OSD configuration: both cache tiers on, every
        // other knob at its OSD default.
        let sc = c.store_config();
        assert_eq!(sc.journal_blocks, 0);
        assert_eq!(sc.cache_blocks, 4096);
        assert_eq!(sc.node_cache_pages(), 1024);
        assert_eq!(sc.shards, 0, "auto-sized store shards");
        assert_eq!(sc.max_extent_bytes, DEFAULT_MAX_EXTENT_BYTES);
        // Group commit: the default batch, zero leader wait.
        let gc = c.group_commit_config();
        let default_gc = GroupCommitConfig::default();
        assert_eq!(gc.max_batch, default_gc.max_batch);
        assert!(gc.max_batch > 0);
        assert_eq!(gc.max_wait, Duration::ZERO);
        assert_eq!(gc.retry, RetryPolicy::standard());
        // The watermark checkpointer at half a ring, default cadence.
        let cc = c.checkpoint_config();
        let default_cc = CheckpointConfig::default();
        assert_eq!(cc.watermark_pct, 50);
        assert_eq!(cc.max_age, default_cc.max_age);
        assert_eq!(cc.interval, default_cc.interval);
        assert_eq!(cc.retry, RetryPolicy::standard());
        assert_eq!(INDEX_SHARDS, 16);
    }

    /// Configurations that differ from the default in every remaining knob.
    fn non_default_configs() -> [HfadConfig; 2] {
        [
            HfadConfig {
                journal_blocks: 256,
                cache_blocks: 0,
                ..Default::default()
            },
            HfadConfig {
                cache_blocks: 8192,
                retry_attempts: 12,
                ..Default::default()
            },
        ]
    }

    #[test]
    fn checkpoint_watermark_maps_to_checkpoint_config() {
        // The watermark is fixed: every configuration checkpoints at half
        // a ring on the checkpointer's default cadence.
        let d = CheckpointConfig::default();
        assert_eq!(d.watermark_pct, 50);
        for c in non_default_configs() {
            let cc = c.checkpoint_config();
            assert_eq!(cc.watermark_pct, d.watermark_pct, "{c:?}");
            assert_eq!(cc.max_age, d.max_age, "{c:?}");
            assert_eq!(cc.interval, d.interval, "{c:?}");
        }
    }

    #[test]
    fn journal_batch_knobs_map_to_group_commit_config() {
        // Batching is fixed: every configuration group-commits with the
        // default batch and no leader wait.
        let d = GroupCommitConfig::default();
        assert!(d.max_batch > 0, "the default batches");
        for c in non_default_configs() {
            let gc = c.group_commit_config();
            assert_eq!(gc.max_batch, d.max_batch, "{c:?}");
            assert_eq!(gc.max_wait, Duration::ZERO, "{c:?}");
        }
    }

    #[test]
    fn cache_knobs_map_to_store_config() {
        let c = HfadConfig {
            cache_blocks: 8192,
            ..Default::default()
        };
        let sc = c.store_config();
        assert_eq!(sc.cache_blocks, 8192);
        assert_eq!(sc.node_cache_pages(), 2048, "node cache is a quarter");
        let uncached = HfadConfig {
            cache_blocks: 0,
            ..Default::default()
        }
        .store_config();
        assert_eq!((uncached.cache_blocks, uncached.node_cache_pages()), (0, 0));
    }

    #[test]
    fn retry_attempts_maps_onto_every_retry_site() {
        // 0 leaves each layer on its own default policy.
        let c = HfadConfig::default();
        assert_eq!(c.retry_policy(), None);
        assert_eq!(c.group_commit_config().retry, RetryPolicy::standard());
        assert_eq!(c.checkpoint_config().retry, RetryPolicy::standard());

        // A non-zero budget overrides only the attempt count, everywhere.
        let c = HfadConfig {
            retry_attempts: 12,
            ..Default::default()
        };
        let expected = RetryPolicy {
            max_attempts: 12,
            ..RetryPolicy::standard()
        };
        assert_eq!(c.retry_policy(), Some(expected));
        assert_eq!(c.group_commit_config().retry, expected);
        assert_eq!(c.checkpoint_config().retry, expected);
    }
}
