//! Output checks that need an offline replay of the inputs a run sent.

use crate::driver::Load;
use crate::gen::{sampled, Plan};
use soar_online::DynamicInstance;
use soar_serve::protocol::SolveOutcome;
use soar_serve::server::{comparable, solve_offline};
use soar_serve::wal;
use std::collections::HashMap;
use std::path::Path;

/// Replays, tenant by tenant, exactly the churn batches the run sent, checks
/// every sampled solve bit for bit against [`solve_offline`] on the state the
/// daemon solved, and returns each tenant's final instance. Problems are
/// appended to `mismatches`.
pub fn replay_run(
    plan: &Plan,
    load: &Load,
    seed: u64,
    mismatches: &mut Vec<String>,
) -> Vec<DynamicInstance> {
    let s = plan.schedule;
    let sent = load.sent();
    let outcomes: HashMap<usize, &SolveOutcome> =
        load.outcomes.iter().map(|(i, o)| (*i, o)).collect();
    (0..s.tenants)
        .map(|t| {
            let mut instance = plan.build(t);
            let mut round = t;
            while round * s.ops_per_round() < sent {
                let (_, slot) = s.round(round);
                for event in plan.events(t, slot) {
                    if let Err(e) = instance.apply(event) {
                        mismatches.push(format!("tenant {t} slot {slot}: offline apply: {e}"));
                    }
                }
                let op = 2 * round + 1;
                if s.solve && op < sent && sampled(seed, op) {
                    // A sampled solve without an outcome failed, and the
                    // receiver already counted it.
                    if let Some(got) = outcomes.get(&op) {
                        let want = solve_offline(&instance, t as u64);
                        if comparable(got) != comparable(&want) {
                            mismatches.push(format!(
                                "solve {op} of tenant {t}: daemon {:?}, offline {:?}",
                                comparable(got),
                                comparable(&want)
                            ));
                        }
                    }
                }
                round += s.tenants;
            }
            instance
        })
        .collect()
}

/// Checks that recovering the daemon's state dir gives every tenant exactly
/// the instance image of the offline replay.
pub fn check_recovery(dir: &Path, instances: &[DynamicInstance], mismatches: &mut Vec<String>) {
    let recovery = match wal::recover(dir) {
        Ok(r) => r,
        Err(e) => {
            mismatches.push(format!("recovering {}: {e}", dir.display()));
            return;
        }
    };
    if recovery.stats.truncated {
        mismatches.push("recovery found a truncated log".into());
    }
    if recovery.tenants.len() != instances.len() {
        mismatches.push(format!(
            "recovered {} tenants, registered {}",
            recovery.tenants.len(),
            instances.len()
        ));
    }
    for r in &recovery.tenants {
        match instances.get(r.tenant as usize) {
            Some(offline) if offline.image() == r.instance.image() => {}
            Some(_) => mismatches.push(format!(
                "tenant {} recovered an image unlike the offline replay",
                r.tenant
            )),
            None => mismatches.push(format!("recovered unknown tenant {}", r.tenant)),
        }
    }
}
