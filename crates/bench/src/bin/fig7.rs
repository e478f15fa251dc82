//! Figure 7: allocation delay.
//!
//! (a) Allocation-scheme computation time during 500 sequential program
//!     deployments, for the cache / lb / hh / mixed workloads, P4runpro
//!     vs ActiveRMT (moving average, window 31, averaged over repeats).
//! (b) Allocation delay under the mixed workload for memory granularities
//!     128 B – 1,024 B (32–256 buckets): P4runpro is insensitive to the
//!     requested size; ActiveRMT slows down as granularity shrinks.

use bench::{mean, mean_alloc_ms, print_series, run_activermt_stream, run_deploy_stream, scaled};
use baselines::ActiveRmtAllocator;
use p4rp_ctl::Controller;
use p4rp_progs::{Workload, WorkloadParams};
use traffic::moving_average;

fn main() {
    let epochs = scaled(500);
    let repeats = scaled(30).clamp(1, 3);
    println!("Figure 7(a): allocation delay over {epochs} deployment epochs (µs, moving avg w=31)\n");

    for workload in [Workload::Cache, Workload::Lb, Workload::Hh, Workload::Mixed] {
        // P4runpro: average the per-epoch series over the repeats.
        let mut acc: Vec<f64> = vec![0.0; epochs];
        for rep in 0..repeats {
            let mut ctl = Controller::with_defaults().unwrap();
            let recs = run_deploy_stream(
                &mut ctl,
                workload,
                WorkloadParams::default(),
                epochs,
                rep as u64,
                false,
            );
            for r in &recs {
                acc[r.epoch] += r.alloc_ms * 1e3 / repeats as f64;
            }
        }
        let smoothed = moving_average(&acc, 31);
        print_series(&format!("p4runpro {:9}", workload.label()), &smoothed, 20);

        let mut a_acc: Vec<f64> = vec![0.0; epochs];
        for rep in 0..repeats {
            let mut armt = ActiveRmtAllocator::default();
            let recs = run_activermt_stream(
                &mut armt,
                workload,
                WorkloadParams::default(),
                epochs,
                rep as u64,
                false,
            );
            for r in &recs {
                a_acc[r.epoch] += r.alloc_ms * 1e3 / repeats as f64;
            }
        }
        let smoothed = moving_average(&a_acc, 31);
        print_series(&format!("activermt {:9}", workload.label()), &smoothed, 20);
        println!();
    }

    println!("Figure 7(b): mean allocation delay vs memory granularity, mixed workload (µs)\n");
    println!("granularity  p4runpro  activermt");
    for buckets in [32u32, 64, 128, 256] {
        let params = WorkloadParams { mem: buckets, elastic: 2 };
        let mut ctl = Controller::with_defaults().unwrap();
        let ours = mean_alloc_ms(&run_deploy_stream(&mut ctl, Workload::Mixed, params, epochs.min(300), 1, false));
        let mut armt = ActiveRmtAllocator::new(buckets);
        let recs = run_activermt_stream(&mut armt, Workload::Mixed, params, epochs.min(300), 1, false);
        let theirs = mean(&recs.iter().filter(|r| r.ok).map(|r| r.alloc_ms).collect::<Vec<_>>());
        println!("{:>6}B      {:>7.1}   {:>8.1}", buckets * 4, ours * 1e3, theirs * 1e3);
    }
}
