//! The durable epoch (term) table: which primary-election epochs this
//! node has observed, where each one started in every shard's log, and
//! whether the node has been deposed.
//!
//! Epochs fence forked histories. Every [`crate::oplog::LogOp::EpochBump`]
//! is a normal WAL record — it ships downstream like any other op, so
//! the whole replica tree learns a promotion in-band at a defined LSN —
//! but WAL segments are swept by checkpoints, so the epoch *summary*
//! must outlive them. That summary is this table, persisted as framed
//! JSON records in `epochs.wal` beside the shard logs (torn tail
//! truncated on load, same rule as every other log in the repo).
//!
//! The table answers the three fencing questions:
//!
//! * **What epoch am I in?** — [`EpochTable::epoch`]: the highest epoch
//!   ever observed, whether by promotion, by applying a shipped bump, or
//!   by being told about it (a deposal).
//! * **Am I deposed?** — [`EpochTable::is_deposed`]: the node has
//!   *heard of* an epoch it has not *applied the history of* — some
//!   other node was promoted past us, so our unshipped tail may be a
//!   fork and we must not accept writes or serve replication.
//! * **Where does a stale follower fork?** — [`EpochTable::fence_lsn`]:
//!   for a follower still in epoch `E`, every record up to (and
//!   including) the first bump past `E` is shared history; anything the
//!   follower holds *beyond* that bump's LSN was written on a deposed
//!   fork and must be discarded.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::durability::frame::{self, Tail};
use crate::durability::io::SharedIo;
use crate::durability::wal::WalError;
use crate::oplog::LogOp;

/// File name of the epoch table, stored in the WAL root directory
/// (beside `shard-NNN/` and `schema.wal`).
pub const EPOCHS_FILE: &str = "epochs.wal";

/// One durable entry in the epoch table's append-only log.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EpochRecord {
    /// Epoch `epoch` starts at `lsn` in shard `shard`'s log — the LSN
    /// of the [`LogOp::EpochBump`] record itself.
    Start {
        /// The epoch being recorded.
        epoch: u64,
        /// Which shard's log the bump sits in.
        shard: u64,
        /// The bump record's LSN in that shard's log.
        lsn: u64,
    },
    /// This node observed epoch `epoch` from outside its own history
    /// (a fencing handshake refusal, or an explicit demote): it is
    /// deposed until its history catches up to that epoch.
    Deposed {
        /// The higher epoch that was observed.
        epoch: u64,
    },
    /// Shard `shard`'s local log was discarded and is being rebuilt
    /// from LSN 0 (fork healing): its recorded epoch-start positions no
    /// longer describe the log and are dropped. They are re-learned as
    /// the rebuilt stream replays its bumps.
    Reset {
        /// The shard whose log was reset.
        shard: u64,
    },
}

/// In-memory form of the table. See the module docs for semantics.
#[derive(Clone, Debug, Default)]
pub struct EpochTable {
    /// epoch -> shard -> LSN of that epoch's bump in the shard's log.
    starts: BTreeMap<u64, BTreeMap<u64, u64>>,
    /// Highest epoch observed out-of-band (0 = never deposed).
    deposed_at: u64,
}

impl EpochTable {
    /// An empty table: epoch 0, not deposed.
    pub fn new() -> EpochTable {
        EpochTable::default()
    }

    /// Fold one record into the table.
    pub fn apply(&mut self, rec: &EpochRecord) {
        match rec {
            EpochRecord::Start { epoch, shard, lsn } => {
                self.starts.entry(*epoch).or_default().insert(*shard, *lsn);
            }
            EpochRecord::Deposed { epoch } => {
                self.deposed_at = self.deposed_at.max(*epoch);
            }
            EpochRecord::Reset { shard } => {
                self.starts.retain(|_, shards| {
                    shards.remove(shard);
                    !shards.is_empty()
                });
            }
        }
    }

    /// The highest epoch whose bump this node has in (or has recorded
    /// for) its own history. 0 when no bump was ever seen.
    pub fn history_epoch(&self) -> u64 {
        self.starts.keys().next_back().copied().unwrap_or(0)
    }

    /// The node's current epoch: the highest it has observed by any
    /// means. A `Promote` moves to `epoch() + 1`.
    pub fn epoch(&self) -> u64 {
        self.history_epoch().max(self.deposed_at)
    }

    /// Deposed: an epoch was observed out-of-band that the node's own
    /// history has not caught up to. A deposed node refuses writes and
    /// refuses to serve replication.
    pub fn is_deposed(&self) -> bool {
        self.deposed_at > self.history_epoch()
    }

    /// Where a follower still in `than_epoch` forks in shard `shard`:
    /// the LSN of the first bump *past* `than_epoch` recorded for that
    /// shard. A follower whose `from_lsn` exceeds this holds records
    /// written on a deposed fork. `None` when no later bump is recorded
    /// for the shard.
    pub fn fence_lsn(&self, shard: u64, than_epoch: u64) -> Option<u64> {
        self.starts
            .range((Bound::Excluded(than_epoch), Bound::Unbounded))
            .find_map(|(_, shards)| shards.get(&shard).copied())
    }

    /// Record that `epoch` starts at `lsn` in `shard`'s log. Returns
    /// the record to persist, or `None` if it was already known.
    pub fn record_start(&mut self, epoch: u64, shard: u64, lsn: u64) -> Option<EpochRecord> {
        match self.starts.entry(epoch).or_default().entry(shard) {
            Entry::Vacant(v) => {
                v.insert(lsn);
                Some(EpochRecord::Start { epoch, shard, lsn })
            }
            Entry::Occupied(_) => None,
        }
    }

    /// Record an out-of-band observation of `epoch`. Returns the record
    /// to persist, or `None` if it changes nothing.
    pub fn record_deposed(&mut self, epoch: u64) -> Option<EpochRecord> {
        if epoch <= self.deposed_at {
            return None;
        }
        self.deposed_at = epoch;
        Some(EpochRecord::Deposed { epoch })
    }

    /// Record that `shard`'s log was reset to LSN 0. Always persisted.
    pub fn record_reset(&mut self, shard: u64) -> EpochRecord {
        let rec = EpochRecord::Reset { shard };
        self.apply(&rec);
        rec
    }

    /// Heal the promote crash window: scan a recovered tail (`ops`
    /// starting at `base_lsn` in shard `shard`) for bump records the
    /// table does not know about — a crash after the bump became
    /// durable in the shard log but before the table append — and fold
    /// them in. Returns the records that must now be persisted.
    pub fn merge_bumps(&mut self, shard: u64, base_lsn: u64, ops: &[LogOp]) -> Vec<EpochRecord> {
        let mut fresh = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            if let LogOp::EpochBump { epoch } = op {
                if let Some(rec) = self.record_start(*epoch, shard, base_lsn + i as u64) {
                    fresh.push(rec);
                }
            }
        }
        fresh
    }

    /// Load the table from `dir/epochs.wal`. A missing file is an empty
    /// table; a torn tail is truncated away (crash during an append);
    /// interior damage is a hard [`WalError::Corrupt`].
    pub fn load(io: &SharedIo, dir: &Path) -> Result<EpochTable, WalError> {
        let path = dir.join(EPOCHS_FILE);
        let bytes = match io.with(|f| f.read(&path)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(EpochTable::new()),
            Err(e) => return Err(e.into()),
        };
        let (payloads, tail) = frame::decode_all(&bytes)
            .map_err(|c| WalError::Corrupt(format!("epoch table at {}: {}", c.offset, c.reason)))?;
        if let Tail::Torn { offset } = tail {
            io.with(|f| f.truncate(&path, offset))?;
        }
        let mut table = EpochTable::new();
        for p in &payloads {
            let text = std::str::from_utf8(p)
                .map_err(|e| WalError::Corrupt(format!("epoch record: {e}")))?;
            let rec: EpochRecord = serde_json::from_str(text)
                .map_err(|e| WalError::Corrupt(format!("epoch record: {e}")))?;
            table.apply(&rec);
        }
        Ok(table)
    }

    /// Durably append `records` to `dir/epochs.wal` (framed, fsynced;
    /// the directory entry is fsynced too so first-write file creation
    /// survives a crash).
    pub fn append(io: &SharedIo, dir: &Path, records: &[EpochRecord]) -> Result<(), WalError> {
        if records.is_empty() {
            return Ok(());
        }
        let path = dir.join(EPOCHS_FILE);
        let mut framed = Vec::new();
        for rec in records {
            let payload = serde_json::to_string(rec)
                .map_err(|e| WalError::Logical(crate::error::OdeError::Method(e.to_string())))?;
            framed.extend_from_slice(&frame::encode(payload.as_bytes()));
        }
        io.with(|f| f.append(&path, &framed))?;
        io.with(|f| f.fsync(&path))?;
        io.with(|f| f.fsync_dir(dir))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::io::StdIo;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ode-epoch-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn shared() -> SharedIo {
        SharedIo::new(StdIo::new())
    }

    #[test]
    fn epoch_and_deposed_semantics() {
        let mut t = EpochTable::new();
        assert_eq!(t.epoch(), 0);
        assert!(!t.is_deposed());

        // Observing epoch 2 out-of-band deposes a node whose history is
        // still at 0.
        assert!(t.record_deposed(2).is_some());
        assert!(t.record_deposed(2).is_none(), "idempotent");
        assert_eq!(t.epoch(), 2);
        assert!(t.is_deposed());

        // Catching up — applying epoch 2's bump — un-deposes it.
        assert!(t.record_start(2, 0, 17).is_some());
        assert!(t.record_start(2, 0, 17).is_none(), "idempotent");
        assert_eq!(t.epoch(), 2);
        assert!(!t.is_deposed());

        // A later promotion continues from the max.
        assert!(t.record_start(3, 0, 40).is_some());
        assert_eq!(t.epoch(), 3);
        assert!(!t.is_deposed());
    }

    #[test]
    fn fence_lsn_finds_first_later_bump() {
        let mut t = EpochTable::new();
        t.record_start(1, 0, 10);
        t.record_start(1, 1, 12);
        t.record_start(3, 0, 30);

        // A follower at epoch 0 forks past epoch 1's bump.
        assert_eq!(t.fence_lsn(0, 0), Some(10));
        assert_eq!(t.fence_lsn(1, 0), Some(12));
        // A follower already at 1 forks past epoch 3's bump; shard 1
        // has no later bump recorded.
        assert_eq!(t.fence_lsn(0, 1), Some(30));
        assert_eq!(t.fence_lsn(1, 1), None);
        // Nothing past epoch 3.
        assert_eq!(t.fence_lsn(0, 3), None);

        // Resetting shard 0 forgets its positions but keeps shard 1's.
        t.record_reset(0);
        assert_eq!(t.fence_lsn(0, 0), None);
        assert_eq!(t.fence_lsn(1, 0), Some(12));
    }

    #[test]
    fn merge_bumps_heals_the_promote_crash_window() {
        let mut t = EpochTable::new();
        t.record_start(1, 0, 5);
        let ops = vec![
            LogOp::AdvanceClock { to: 1 },
            LogOp::EpochBump { epoch: 1 }, // already known
            LogOp::EpochBump { epoch: 2 }, // crash window: log has it, table doesn't
        ];
        let fresh = t.merge_bumps(0, 4, &ops);
        assert_eq!(
            fresh,
            vec![EpochRecord::Start {
                epoch: 2,
                shard: 0,
                lsn: 6
            }]
        );
        assert_eq!(t.epoch(), 2);
        assert_eq!(t.fence_lsn(0, 1), Some(6));
    }

    #[test]
    fn persists_and_reloads_with_torn_tail_truncated() {
        let dir = tmp_dir("persist");
        let io = shared();

        assert_eq!(
            EpochTable::load(&io, &dir).unwrap().epoch(),
            0,
            "missing file is empty"
        );

        let mut t = EpochTable::new();
        let mut recs = Vec::new();
        recs.extend(t.record_start(1, 0, 10));
        recs.extend(t.record_deposed(2));
        EpochTable::append(&io, &dir, &recs).unwrap();

        let back = EpochTable::load(&io, &dir).unwrap();
        assert_eq!(back.epoch(), 2);
        assert!(back.is_deposed());
        assert_eq!(back.fence_lsn(0, 0), Some(10));

        // Tear the tail: a half-appended record must vanish on load,
        // leaving the earlier records intact.
        let path = dir.join(EPOCHS_FILE);
        let torn = frame::encode(b"{\"Reset\":{\"shard\":0}}");
        io.with(|f| f.append(&path, &torn[..11])).unwrap();
        let back = EpochTable::load(&io, &dir).unwrap();
        assert_eq!(back.fence_lsn(0, 0), Some(10), "prefix survives");
        let bytes = io.with(|f| f.read(&path)).unwrap();
        assert_eq!(
            frame::decode_all(&bytes).unwrap().1,
            Tail::Clean,
            "tail repaired"
        );
    }
}
