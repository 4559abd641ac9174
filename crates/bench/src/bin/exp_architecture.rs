//! E1 — The Figure-1 architecture, live over TCP.
//!
//! Boots the Central Faucets Server, three Faucets Daemons (each fronting a
//! Cluster Manager), and the AppSpector server as real sockets on
//! localhost; two clients then push a batch of jobs through the full §2
//! protocol. The table reports each component's traffic — the figure's
//! arrows, counted.

use faucets_bench::{figure1_scenario, Bound, ExitCode, Report};
use faucets_grid::prelude::*;
use faucets_net::prelude::*;

fn main() -> ExitCode {
    let mut report = Report::new("E1", "architecture");
    let jobs_per_client: usize = report.flag("jobs", 4);
    let (grid, _clients) = figure1_scenario(&Clock::new(3_000.0), jobs_per_client);
    let (fs, aspect, fds) = (&grid.fs, &grid.appspector, &grid.fds);
    let mut table = Table::new(
        "E1: Figure-1 components, live on localhost",
        &["component", "address", "traffic"],
    );
    {
        let s = fs.state.lock();
        table.row(vec![
            "Faucets Central Server".into(),
            fs.service.addr.to_string(),
            format!(
                "{} logins, {} token verifications, {} match queries, {} RFBs implied, {} heartbeats",
                s.stats.logins, s.stats.verifications, s.stats.matches, s.stats.rfb_messages, s.stats.heartbeats
            ),
        ]);
    }
    table.row(vec![
        "AppSpector Server".into(),
        aspect.service.addr.to_string(),
        format!("{} jobs monitored", aspect.job_count()),
    ]);
    for fd in fds {
        let d = fd.daemon_stats();
        table.row(vec![
            format!("Faucets Daemon {}", fd.cluster_id),
            fd.service.addr.to_string(),
            format!(
                "{} bid requests, {} bids, {} declines, {} confirms, {} jobs run, revenue {}",
                d.requests,
                d.bids,
                d.declines,
                d.confirms,
                fd.completed(),
                fd.revenue()
            ),
        ]);
    }
    report.table(&table);

    let total: u64 = fds.iter().map(|f| f.completed()).sum();
    println!(
        "All {total} jobs ran to completion through authenticate → match →\n\
         bid → award → stage → execute → monitor → download, over real TCP."
    );
    report.gate("jobs_completed", total, Bound::eq(2 * jobs_per_client));
    // Every confirmed job reached AppSpector, however its pump rounds went.
    report.gate("jobs_monitored", aspect.job_count(), Bound::eq(total));
    for fd in grid.fds {
        fd.shutdown();
    }
    report.finish()
}
