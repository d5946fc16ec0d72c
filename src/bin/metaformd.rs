//! `metaformd` — the work-queue extraction service.
//!
//! ```text
//! metaformd                          serve on 127.0.0.1:8077
//! metaformd --addr <host:port>       listen address (port 0 = ephemeral)
//! metaformd --pool-workers <n>       concurrent batch jobs (default 2)
//! metaformd --batch-workers <n>      worker threads per job (default: machine)
//! metaformd --queue-capacity <n>     queued jobs before 503 (default 64)
//! metaformd --max-retries <n>        adaptive retry rounds (default 2)
//! metaformd --max-instances <n>      parser instance cap per page
//! metaformd --page-deadline-ms <n>   wall-clock parse budget per page
//! metaformd --max-body-bytes <n>     request body cap (default 16 MiB)
//! metaformd --read-timeout-ms <n>    socket read timeout (default 10000)
//! metaformd --uds <path>             also serve line-JSON on a Unix socket
//! metaformd --refit-every <n>        auto-refit budgets every n jobs
//! metaformd --induce-every <n>       mine/validate/hot-add grammar productions every n jobs
//! metaformd --fault-plan <spec>      inject faults, e.g. panic@3,stall@5
//! ```
//!
//! Compiles the grammar once at startup, prints the bound address
//! (`metaformd listening on <addr>`), then serves until
//! `POST /v1/shutdown`. See README.md § "Running as a service" for the
//! endpoint protocol and curl examples.

use metaform_extractor::FaultPlan;
use metaform_service::{Server, ServiceConfig};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: metaformd [--addr <host:port>] [--pool-workers <n>] [--batch-workers <n>]\n\
         \x20                [--queue-capacity <n>] [--max-retries <n>] [--max-instances <n>]\n\
         \x20                [--page-deadline-ms <n>] [--max-body-bytes <n>] [--read-timeout-ms <n>]\n\
         \x20                [--uds <path>] [--refit-every <n>] [--induce-every <n>]\n\
         \x20                [--fault-plan <kind@page,...>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut config = ServiceConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => {
                let Some(addr) = args.next() else {
                    eprintln!("--addr needs a host:port");
                    return usage();
                };
                config.addr = addr;
            }
            "--pool-workers" => {
                let Some(n) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--pool-workers needs a number");
                    return usage();
                };
                config.pool_workers = n.max(1);
            }
            "--batch-workers" => {
                let Some(n) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--batch-workers needs a number");
                    return usage();
                };
                config.batch_workers = Some(n.max(1));
            }
            "--queue-capacity" => {
                let Some(n) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--queue-capacity needs a number");
                    return usage();
                };
                config.queue_capacity = n;
            }
            "--max-retries" => {
                let Some(n) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--max-retries needs a number");
                    return usage();
                };
                config.max_retries = n;
            }
            "--max-instances" => {
                let Some(cap) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--max-instances needs a number");
                    return usage();
                };
                config.max_instances = Some(cap);
            }
            "--page-deadline-ms" => {
                let Some(ms) = args.next().and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("--page-deadline-ms needs a number of milliseconds");
                    return usage();
                };
                config.page_deadline = Some(Duration::from_millis(ms));
            }
            "--max-body-bytes" => {
                let Some(n) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--max-body-bytes needs a number");
                    return usage();
                };
                config.max_body_bytes = n;
            }
            "--read-timeout-ms" => {
                let Some(ms) = args.next().and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("--read-timeout-ms needs a number of milliseconds");
                    return usage();
                };
                config.read_timeout = Duration::from_millis(ms.max(1));
            }
            "--uds" => {
                let Some(path) = args.next() else {
                    eprintln!("--uds needs a socket path");
                    return usage();
                };
                config.uds_path = Some(path);
            }
            "--refit-every" => {
                let Some(n) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--refit-every needs a number of jobs");
                    return usage();
                };
                config.refit_every = Some(n.max(1));
            }
            "--induce-every" => {
                let Some(n) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--induce-every needs a number of jobs");
                    return usage();
                };
                config.induce_every = Some(n.max(1));
            }
            "--fault-plan" => {
                let Some(spec) = args.next() else {
                    eprintln!("--fault-plan needs a spec like panic@3,stall@5,cancel@7");
                    return usage();
                };
                match FaultPlan::parse(&spec) {
                    Ok(plan) => config.fault_plan = Some(plan),
                    Err(why) => {
                        eprintln!("bad --fault-plan: {why}");
                        return usage();
                    }
                }
            }
            "--help" | "-h" => {
                let _ = usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown option: {other}");
                return usage();
            }
        }
    }

    // Binding also compiles the grammar: by the time the address is
    // announced, the first request pays no startup cost.
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("metaformd listening on {addr}"),
        Err(e) => {
            eprintln!("error: cannot read bound address: {e}");
            return ExitCode::FAILURE;
        }
    }
    server.run();
    ExitCode::SUCCESS
}
