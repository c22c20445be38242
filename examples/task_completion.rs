//! Task-model comparison: who finishes when (the paper's Table 1).
//!
//! ```text
//! cargo run --release --example task_completion
//! ```
//!
//! Two laptops each upload a 4 MB file, one over an 11 Mbit/s link,
//! one over 1 Mbit/s. Under throughput-based fairness both finish at
//! the same (late) moment; under time-based fairness the fast laptop
//! finishes ~3× sooner and can leave (or sleep its radio), while the
//! slow one finishes no later than before — the paper's AvgTaskTime
//! argument for mobile energy and turnover. Each simulated run is
//! printed next to the analytic fluid task model
//! (`airtime::model::task_schedule`).

use airtime::model::{gamma_measured, task_schedule, FairnessPolicy, NodeSpec};
use airtime::phy::DataRate;
use airtime::wlan::{run, scenarios, SchedulerKind};

fn main() {
    const TASK: u64 = 4_000_000;
    let rates = [DataRate::B11, DataRate::B1];
    let nodes = rates.map(|r| NodeSpec::with_gamma(gamma_measured(r).unwrap()));
    println!("two 4 MB uploads, 11M vs 1M link\n");
    for (label, sched, policy) in [
        (
            "throughput-based (stock AP)",
            SchedulerKind::RoundRobin,
            FairnessPolicy::ThroughputFair,
        ),
        (
            "time-based (TBR)",
            SchedulerKind::tbr(),
            FairnessPolicy::TimeFair,
        ),
    ] {
        let r = run(&scenarios::task_model(&rates, TASK, sched));
        println!("{label}:");
        for f in &r.flows {
            match f.completion {
                Some(t) => println!(
                    "  node {} finished at {:.1} s",
                    f.station + 1,
                    t.as_secs_f64()
                ),
                None => println!("  node {} did not finish", f.station + 1),
            }
        }
        let fluid = task_schedule(&nodes, &[TASK as f64; 2], policy);
        if let (Some(avg), Some(fin)) = (r.avg_task_time(), r.final_task_time()) {
            println!(
                "  simulated: AvgTaskTime {:.1} s   FinalTaskTime {:.1} s",
                avg.as_secs_f64(),
                fin.as_secs_f64()
            );
        }
        println!(
            "  analytic:  AvgTaskTime {:.1} s   FinalTaskTime {:.1} s\n",
            fluid.avg_task_time, fluid.final_task_time
        );
    }
}
