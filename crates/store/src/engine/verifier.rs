//! The verifier thread: after each epoch boundary the workers record a
//! bounded window of subsequent events; this thread assembles each
//! frozen window from all workers' records, rebuilds it **per shard**
//! and checks it against the mode's criterion (see [`crate::record`]).

use super::taps::new_span;
use crate::config::StoreConfig;
use crate::record::{verify_shard_windows, WindowRecord};
use crate::shard::ShardMap;
use crate::stats::WindowVerdict;
use cbm_adt::space::ObjectSpace;
use cbm_adt::Adt;
use cbm_obs::{Span, SpanKind};
use std::sync::mpsc;
use std::time::Instant;

/// Run until every worker has hung up; returns the verdicts in
/// `(window, shard)` order and — when `tracing` — their
/// `verify_window` spans on the verifier's lane (`tid = workers`).
pub(super) fn verify_windows<T: Adt + Clone>(
    adt: &T,
    cfg: &StoreConfig,
    map: &ShardMap,
    tracing: bool,
    t0: Instant,
    rx: mpsc::Receiver<WindowRecord<T>>,
) -> (Vec<WindowVerdict>, Vec<Span>) {
    let n = cfg.workers.max(1);
    let mode = cfg.mode;
    let sample_every = cfg.verify.sample_every.max(1);
    let space = ObjectSpace::new(adt.clone(), cfg.objects.max(1));
    let mut pending: Vec<(u64, Vec<WindowRecord<T>>)> = Vec::new();
    let mut verdicts: Vec<WindowVerdict> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut conclude = |v: WindowVerdict| {
        if tracing {
            // window w covers the start of epoch w+1
            let wall = t0.elapsed().as_nanos() as u64;
            let mut sp = new_span(
                SpanKind::VerifyWindow,
                n as u32,
                v.window + 1,
                v.window,
                wall,
            );
            sp.shard = v.shard.map(|s| s as i64).unwrap_or(-1);
            sp.a = v.events as u64;
            sp.b = v.crashed_workers as u64;
            sp.flag = v.result.is_ok();
            spans.push(sp);
        }
        verdicts.push(v);
    };
    while let Ok(rec) = rx.recv() {
        let wid = rec.window;
        let slot = match pending.iter().position(|(w, _)| *w == wid) {
            Some(i) => i,
            None => {
                pending.push((wid, Vec::new()));
                pending.len() - 1
            }
        };
        pending[slot].1.push(rec);
        if pending[slot].1.len() == n {
            let (_, mut parts) = pending.swap_remove(slot);
            parts.sort_by_key(|p| p.worker);
            let spans_recovery = parts.iter().any(|p| p.spans_recovery);
            for v in verify_shard_windows(&space, mode, sample_every, &parts, map) {
                conclude(WindowVerdict {
                    window: wid,
                    shard: v.shard,
                    criterion: mode.criterion(),
                    events: *v.result.as_ref().unwrap_or(&0),
                    crashed_workers: v.crashed_workers,
                    spans_recovery,
                    result: v.result.map(|_| ()),
                });
            }
        }
    }
    for (wid, parts) in pending {
        conclude(WindowVerdict {
            window: wid,
            shard: None,
            criterion: mode.criterion(),
            events: 0,
            crashed_workers: parts.iter().filter(|p| p.crashed).count(),
            spans_recovery: parts.iter().any(|p| p.spans_recovery),
            result: Err(format!(
                "window never completed: {}/{} worker records",
                parts.len(),
                n
            )),
        });
    }
    verdicts.sort_by_key(|v| (v.window, v.shard));
    (verdicts, spans)
}
