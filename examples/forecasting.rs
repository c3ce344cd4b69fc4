//! Load forecasting and proactive triggering (the paper's future work):
//! run the simulated SAP installation for three days to fill the load
//! archive, then predict the fourth day and fire proactive triggers ahead
//! of the morning ramp.
//!
//! ```bash
//! cargo run --release --example forecasting
//! ```

use autoglobe::forecast::{Forecaster, HintBook, ProactiveTrigger};
use autoglobe::prelude::*;

fn main() {
    // Three simulated days fill the archive with the daily pattern.
    println!("simulating 3 days to fill the load archive …");
    let env = build_environment(Scenario::Static);
    let blade3 = env.landscape.server_by_name("Blade3").unwrap(); // an FI blade
    let db3 = env.landscape.server_by_name("DBServer3").unwrap(); // the BW database
    let mut run = RunBuilder::new(Scenario::Static)
        .multiplier(1.0)
        .hours(72)
        .environment(env)
        .supervised();
    for _ in 0..72 * 60 {
        run.step();
    }
    let now = run.now();
    let archive = run.supervisor().archive();

    // Forecast the next morning for the FI blade.
    let forecaster = Forecaster::new();
    println!("\nforecast for Blade3 (FI application server):");
    println!("{:<12} {:>10} {:>12}", "time", "predicted", "confidence");
    for hours_ahead in [2u64, 6, 9, 11, 14] {
        let target = now + SimDuration::from_hours(hours_ahead);
        let f = forecaster.predict(archive, Subject::Server(blade3), now, target);
        println!(
            "{:<12} {:>9.0}% {:>11.0}%",
            target.to_string(),
            f.cpu * 100.0,
            f.confidence * 100.0
        );
    }

    println!("\nforecast for DBServer3 (BW database, nocturnal):");
    for hours_ahead in [2u64, 6, 12, 23] {
        let target = now + SimDuration::from_hours(hours_ahead);
        let f = forecaster.predict(archive, Subject::Server(db3), now, target);
        println!(
            "{:<12} {:>9.0}% {:>11.0}%",
            target.to_string(),
            f.cpu * 100.0,
            f.confidence * 100.0
        );
    }

    // Proactive triggering: just before the morning ramp, the predictor
    // raises the overload flag while the hardware is still idle.
    let proactive = ProactiveTrigger::new();
    let hints = HintBook::new();
    println!("\nproactive check at {} (one-hour horizon):", now);
    for server_name in ["Blade3", "DBServer3"] {
        let server = run
            .supervisor()
            .landscape()
            .server_by_name(server_name)
            .unwrap();
        match proactive.check(archive, &hints, Subject::Server(server), 1.0, now) {
            Some(firing) => println!(
                "  {server_name}: {} (predicted for {}, {} lead)",
                firing.event,
                firing.predicted_at,
                firing.lead()
            ),
            None => println!("  {server_name}: no imminent overload predicted"),
        }
    }
}
