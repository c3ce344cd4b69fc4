//! Simulate one day of the paper's SAP installation in the full-mobility
//! scenario at +15 % users and narrate what the controller does.
//!
//! ```bash
//! cargo run --release --example sap_day [multiplier] [scenario]
//! ```
//!
//! `scenario` is one of `static`, `cm`, `fm` (default `fm`).

use autoglobe::prelude::*;

fn main() {
    let multiplier: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.15);
    let scenario = match std::env::args().nth(2).as_deref() {
        Some("static") => Scenario::Static,
        Some("cm") => Scenario::ConstrainedMobility,
        _ => Scenario::FullMobility,
    };

    println!("simulating one day of the paper's SAP installation");
    println!(
        "scenario: {scenario}, users at {:.0} % of Table 4\n",
        multiplier * 100.0
    );

    let env = build_environment(scenario);
    let server_names: Vec<String> = env
        .landscape
        .server_ids()
        .map(|id| env.landscape.server(id).unwrap().name.clone())
        .collect();
    let service_names: Vec<String> = env
        .landscape
        .service_ids()
        .map(|id| env.landscape.service(id).unwrap().name.clone())
        .collect();

    let mut run = RunBuilder::new(scenario)
        .multiplier(multiplier)
        .hours(24)
        .environment(env)
        .supervised();
    let mut load_sum = 0.0;
    for _ in 0..24 * 60 {
        run.step();
        load_sum += run.last_loads().average_cpu;
    }
    let metrics = run.finish();

    println!("== controller actions ==");
    if metrics.actions.is_empty() {
        println!("  (none — services are static in this scenario)");
    }
    for record in &metrics.actions {
        // Render ids as names for readability — higher ids first so srv#1
        // is never substituted inside srv#17.
        let mut line = record.to_string();
        for (i, name) in server_names.iter().enumerate().rev() {
            line = line.replace(&format!("srv#{i}"), name);
        }
        for (i, name) in service_names.iter().enumerate().rev() {
            line = line.replace(&format!("svc#{i}"), name);
        }
        println!("  {line}");
    }

    println!("\n== load summary ==");
    println!(
        "  mean load over all servers: {:.1} %",
        load_sum / (24.0 * 60.0) * 100.0
    );
    println!(
        "  worst sustained overload on one server: {}",
        metrics.worst_overload()
    );
    println!(
        "  unserved demand: {:.3} %",
        metrics.unserved_fraction() * 100.0
    );
    println!("  administrator alerts: {}", metrics.alerts);

    println!("\n== busiest servers (peak load) ==");
    let mut peaks: Vec<_> = metrics.peak_load.iter().collect();
    peaks.sort_by(|a, b| b.1.partial_cmp(a.1).unwrap());
    for (server, peak) in peaks.iter().take(6) {
        println!(
            "  {:<12} peak {:.0} %",
            server_names[server.index()],
            **peak * 100.0
        );
    }

    println!("\n== actions by kind ==");
    for (kind, count) in metrics.action_counts() {
        println!("  {kind:<18} {count}");
    }
}
