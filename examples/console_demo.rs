//! Render the controller console (the paper's Figure 8) against the
//! simulated SAP installation at mid-morning.
//!
//! ```bash
//! cargo run --release --example console_demo
//! ```

use autoglobe::console;
use autoglobe::controller::inputs::TableLoads;
use autoglobe::prelude::*;

fn main() {
    // Run the FM scenario to 10:00 so the console shows a live morning.
    let mut run = RunBuilder::new(Scenario::FullMobility)
        .hours(10)
        .supervised();
    for _ in 0..10 * 60 {
        run.step();
    }
    let now = run.now();
    let supervisor = run.supervisor();

    // Snapshot loads from the archive's most recent minute for the console.
    let mut loads = TableLoads::new();
    let recent = |subject| {
        supervisor
            .archive()
            .average_cpu(subject, now - SimDuration::from_minutes(2), now)
    };
    for server in supervisor.landscape().server_ids() {
        if let Some(avg) = recent(Subject::Server(server)) {
            loads.set(Subject::Server(server), avg, 0.0);
        }
    }
    for service in supervisor.landscape().service_ids() {
        if let Some(avg) = recent(Subject::Service(service)) {
            loads.set(Subject::Service(service), avg, 0.0);
        }
    }

    // The console's server and service views render landscape + loads +
    // controller state. The run hands every controller event to its
    // metrics as it goes, so the message view lists the run's most recent
    // executed actions instead of the controller's (drained) log.
    let (landscape, controller) = (supervisor.landscape(), supervisor.controller());
    println!("AutoGlobe controller console — {now}\n");
    println!(
        "{}",
        console::server_view(landscape, &loads, controller, now)
    );
    println!(
        "{}",
        console::service_view(landscape, &loads, controller, now)
    );
    println!("== message view ==");
    let actions = &run.metrics().actions;
    for record in &actions[actions.len().saturating_sub(12)..] {
        println!("  ok {record}");
    }
}
