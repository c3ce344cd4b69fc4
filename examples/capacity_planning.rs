//! Capacity planning: how many users can the installation handle in each
//! scenario? (The experiment behind Table 7 of the paper, on a reduced
//! horizon so it finishes in seconds.)
//!
//! ```bash
//! cargo run --release --example capacity_planning [hours]
//! ```

use autoglobe::prelude::*;

fn main() {
    let hours: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(48);
    let criterion = CapacityCriterion::default();

    println!("capacity sweep: +5 % user steps until overload ({hours} h horizon per step)\n");
    println!("{:<22} {:>10}  probes", "scenario", "max users");
    println!("{}", "-".repeat(48));

    let mut baseline = None;
    for scenario in Scenario::ALL {
        let result = find_max_users(scenario, criterion, 0.05, |multiplier| {
            RunBuilder::new(scenario)
                .multiplier(multiplier)
                .hours(hours)
                .seed(42)
                .supervised()
                .run()
        });
        let probes: Vec<String> = result
            .steps
            .iter()
            .map(|(m, over)| format!("{:.0}%{}", m * 100.0, if *over { "✗" } else { "✓" }))
            .collect();
        println!(
            "{:<22} {:>9.0}%  {}",
            scenario.name(),
            result.max_users_percent(),
            probes.join(" ")
        );
        if scenario == Scenario::Static {
            baseline = Some(result.max_multiplier);
        } else if let Some(base) = baseline {
            let gain = (result.max_multiplier / base - 1.0) * 100.0;
            println!("{:<22} {:>10}  (+{gain:.0} % over static)", "", "");
        }
    }

    println!("\npaper's Table 7: static 100 %, constrained mobility 115 %, full mobility 135 %");
}
