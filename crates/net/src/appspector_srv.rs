//! The AppSpector server (AS) as a TCP service (§2).
//!
//! Buffers display data from running jobs so any number of authenticated
//! clients can watch simultaneously, holds completed jobs' output files for
//! download, and re-verifies client tokens against the FS before serving
//! anything — the paper's authenticated-monitoring flow.

use crate::pool::{ConnPool, PoolConfig};
use crate::proto::{Request, Response};
use crate::service::{call_with, serve_with, CallOptions, ServeOptions, ServiceHandle};
use crate::upstream::FsUpstream;
use faucets_core::appspector::{AppSpector, GridView, OutputFile};
use faucets_core::auth::SessionToken;
use faucets_core::ids::JobId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

struct AsState {
    spector: AppSpector,
    outputs: HashMap<JobId, Vec<(String, Vec<u8>)>>,
}

/// Everything one AppSpector request handler needs, shared across worker
/// threads (the shape of `FsCore` in [`crate::fs`]).
struct AsCore {
    state: Mutex<AsState>,
    /// Token re-verification and the GridView's directory pull. Token
    /// checks happen on every Watch/Download, so every outbound call — to
    /// the FS here, to the FDs through `call` — shares one pool of warm
    /// sockets instead of reconnecting each time.
    fs: FsUpstream,
    call: CallOptions,
}

/// A running AppSpector service.
pub struct AsHandle {
    /// The TCP service.
    pub service: ServiceHandle,
    core: Arc<AsCore>,
}

impl AsHandle {
    /// Number of jobs currently monitored (test/tooling hook).
    pub fn job_count(&self) -> usize {
        self.core.state.lock().spector.job_count()
    }
}

impl AsCore {
    fn handle(&self, req: Request) -> Response {
        match req {
            Request::RegisterJob {
                job,
                owner,
                cluster,
            } => {
                self.state.lock().spector.register_job(job, owner, cluster);
                Response::Ok
            }
            Request::PushSample { job, sample } => {
                match self.state.lock().spector.push_sample(job, sample) {
                    Ok(()) => Response::Ok,
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Request::CompleteJob { job, outputs } => self.complete(job, outputs),
            Request::Watch { token, job } => self.watch(&token, job),
            Request::Download { token, job, name } => self.download(&token, job, &name),
            Request::GridView { token } => self.grid_view(token),
            other => Response::Error(format!("AppSpector cannot handle {other:?}")),
        }
    }

    fn complete(&self, job: JobId, outputs: Vec<(String, Vec<u8>)>) -> Response {
        let files: Vec<OutputFile> = outputs
            .iter()
            .map(|(name, data)| OutputFile {
                name: name.clone(),
                size_bytes: data.len() as u64,
            })
            .collect();
        let mut s = self.state.lock();
        match s.spector.complete_job(job, files) {
            Ok(()) => {
                s.outputs.insert(job, outputs);
                Response::Ok
            }
            Err(e) => Response::Error(e.to_string()),
        }
    }

    fn watch(&self, token: &SessionToken, job: JobId) -> Response {
        let user = match self.fs.verify(token) {
            Ok(u) => u,
            Err(resp) => return resp,
        };
        match self.state.lock().spector.connect(job, user) {
            Ok(snap) => Response::Snapshot(snap),
            Err(e) => Response::Error(e.to_string()),
        }
    }

    fn download(&self, token: &SessionToken, job: JobId, name: &str) -> Response {
        let user = match self.fs.verify(token) {
            Ok(u) => u,
            Err(resp) => return resp,
        };
        let s = self.state.lock();
        // Ownership check through the monitor.
        if let Err(e) = s.spector.connect(job, user) {
            return Response::Error(e.to_string());
        }
        let files = s.outputs.get(&job);
        match files.and_then(|v| v.iter().find(|(n, _)| n == name)) {
            Some((n, data)) => Response::File {
                name: n.clone(),
                data: data.clone(),
            },
            None => Response::Error(format!("no output '{name}' for {job}")),
        }
    }

    fn grid_view(&self, token: SessionToken) -> Response {
        if let Err(resp) = self.fs.verify(&token) {
            return resp;
        }
        // Pull the directory and every reachable service's metrics.
        // Per-source snapshots are kept separate, never summed: services
        // colocated in one process share a registry and summing would
        // double-count.
        let mut services = Vec::new();
        let mut clusters = Vec::new();
        if let Ok(Response::Metrics(snap)) = self.fs.call(&Request::Metrics) {
            services.push(("fs".to_string(), snap));
        }
        if let Ok(Response::Clusters(rows)) = self.fs.call(&Request::ListClusters { token }) {
            clusters = rows;
        }
        for row in &clusters {
            let Some(addr) = row.info.fd_socket_addr() else {
                continue;
            };
            if let Ok(Response::Metrics(snap)) = call_with(addr, &Request::Metrics, &self.call) {
                services.push((format!("fd:{}", row.info.name), snap));
            }
        }
        services.push((
            "appspector".to_string(),
            faucets_telemetry::global().snapshot(),
        ));
        let jobs_monitored = self.state.lock().spector.job_count() as u64;
        Response::Grid(Box::new(GridView {
            at_secs: faucets_telemetry::trace::wall_secs(),
            clusters,
            services,
            jobs_monitored,
        }))
    }
}

/// Spawn the AppSpector service; `fs` is used to re-verify client tokens.
pub fn spawn_appspector(addr: &str, fs: SocketAddr, buffer_depth: usize) -> io::Result<AsHandle> {
    spawn_appspector_with(addr, fs, buffer_depth, ServeOptions::default())
}

/// [`spawn_appspector`], with explicit timeouts and optional fault
/// injection on the service side.
pub fn spawn_appspector_with(
    addr: &str,
    fs: SocketAddr,
    buffer_depth: usize,
    opts: ServeOptions,
) -> io::Result<AsHandle> {
    let call = CallOptions {
        pool: Some(Arc::new(ConnPool::new("appspector", PoolConfig::default()))),
        ..CallOptions::default()
    };
    let core = Arc::new(AsCore {
        state: Mutex::new(AsState {
            spector: AppSpector::new(buffer_depth),
            outputs: HashMap::new(),
        }),
        fs: FsUpstream::new(fs, &[], call.clone()),
        call,
    });
    let handler = Arc::clone(&core);
    let service = serve_with(addr, "appspector", opts, move |req| handler.handle(req))?;
    Ok(AsHandle { service, core })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::spawn_fs;
    use crate::service::{call, Clock};
    use faucets_core::appspector::TelemetrySample;
    use faucets_core::ids::{ClusterId, UserId};
    use faucets_sim::time::SimTime;

    fn setup() -> (
        crate::fs::FsHandle,
        AsHandle,
        faucets_core::auth::SessionToken,
        UserId,
    ) {
        let fs = spawn_fs("127.0.0.1:0", Clock::realtime(), 7).unwrap();
        let aspect = spawn_appspector("127.0.0.1:0", fs.service.addr, 16).unwrap();
        call(
            fs.service.addr,
            &Request::CreateUser {
                user: "a".into(),
                password: "p".into(),
            },
        )
        .unwrap();
        let Response::Session { user, token } = call(
            fs.service.addr,
            &Request::Login {
                user: "a".into(),
                password: "p".into(),
            },
        )
        .unwrap() else {
            panic!()
        };
        (fs, aspect, token, user)
    }

    #[test]
    fn register_push_watch_complete_download() {
        let (_fs, aspect, token, user) = setup();
        let addr = aspect.service.addr;
        call(
            addr,
            &Request::RegisterJob {
                job: JobId(1),
                owner: user,
                cluster: ClusterId(2),
            },
        )
        .unwrap();
        assert_eq!(aspect.job_count(), 1);
        call(
            addr,
            &Request::PushSample {
                job: JobId(1),
                sample: TelemetrySample {
                    at: SimTime::from_secs(1),
                    pes: 8,
                    utilization: 0.9,
                    throughput: 4.2,
                    app_data: "step 1".into(),
                },
            },
        )
        .unwrap();
        let Response::Snapshot(snap) = call(
            addr,
            &Request::Watch {
                token: token.clone(),
                job: JobId(1),
            },
        )
        .unwrap() else {
            panic!("expected snapshot")
        };
        assert_eq!(snap.samples.len(), 1);
        assert!(!snap.completed);

        call(
            addr,
            &Request::CompleteJob {
                job: JobId(1),
                outputs: vec![("out.dat".into(), vec![1, 2, 3])],
            },
        )
        .unwrap();
        let Response::File { data, .. } = call(
            addr,
            &Request::Download {
                token,
                job: JobId(1),
                name: "out.dat".into(),
            },
        )
        .unwrap() else {
            panic!("expected file")
        };
        assert_eq!(data, vec![1, 2, 3]);
    }

    #[test]
    fn grid_view_aggregates_directory_and_metrics() {
        let (fs, aspect, token, _user) = setup();
        let info = faucets_core::directory::ServerInfo {
            cluster: ClusterId(3),
            name: "lemieux".into(),
            total_pes: 128,
            mem_per_pe_mb: 2048,
            cpu_type: "power4".into(),
            flops_per_pe_sec: 2.0,
            fd_addr: "127.0.0.1".into(),
            fd_port: 1, // nothing listens here; the FD snapshot is skipped
        };
        call(
            fs.service.addr,
            &Request::RegisterCluster {
                info,
                apps: vec!["namd".into()],
            },
        )
        .unwrap();

        let Response::Grid(view) = call(aspect.service.addr, &Request::GridView { token }).unwrap()
        else {
            panic!("expected grid view")
        };
        assert_eq!(view.clusters.len(), 1);
        assert_eq!(view.clusters[0].info.name, "lemieux");
        let names: Vec<&str> = view.services.iter().map(|(n, _)| n.as_str()).collect();
        assert!(
            names.contains(&"fs") && names.contains(&"appspector"),
            "got {names:?}"
        );
        // The FS snapshot has seen at least its own traffic by now.
        let (_, fs_snap) = view.services.iter().find(|(n, _)| n == "fs").unwrap();
        assert!(fs_snap.counter_sum("net_requests_total", &[("service", "fs")]) > 0);
        assert!(view.render().contains("lemieux"));
    }

    /// Every token-bearing endpoint bounces a forged token with the FS's
    /// own answer to `VerifyToken` — the same reply the FD gives, since
    /// both go through `FsUpstream::verify`.
    #[test]
    fn forged_tokens_are_rejected() {
        let (fs, aspect, _token, user) = setup();
        let addr = aspect.service.addr;
        call(
            addr,
            &Request::RegisterJob {
                job: JobId(1),
                owner: user,
                cluster: ClusterId(2),
            },
        )
        .unwrap();
        let token = faucets_core::auth::SessionToken("bogus".into());
        let verify = Request::VerifyToken {
            token: token.clone(),
        };
        let fs_says = call(fs.service.addr, &verify).unwrap();
        assert!(matches!(fs_says, Response::Error(_)), "got {fs_says:?}");
        let job = JobId(1);
        for req in [
            Request::Watch {
                token: token.clone(),
                job,
            },
            Request::Download {
                token: token.clone(),
                job,
                name: "out.dat".into(),
            },
            Request::GridView { token },
        ] {
            assert_eq!(call(addr, &req).unwrap(), fs_says, "{req:?}");
        }
    }

    #[test]
    fn non_owner_cannot_watch() {
        let (fs, aspect, _token, user) = setup();
        call(
            fs.service.addr,
            &Request::CreateUser {
                user: "mallory".into(),
                password: "p".into(),
            },
        )
        .unwrap();
        let Response::Session { token: mallory, .. } = call(
            fs.service.addr,
            &Request::Login {
                user: "mallory".into(),
                password: "p".into(),
            },
        )
        .unwrap() else {
            panic!()
        };
        let addr = aspect.service.addr;
        call(
            addr,
            &Request::RegisterJob {
                job: JobId(1),
                owner: user,
                cluster: ClusterId(2),
            },
        )
        .unwrap();
        let r = call(
            addr,
            &Request::Watch {
                token: mallory,
                job: JobId(1),
            },
        )
        .unwrap();
        assert!(matches!(r, Response::Error(_)));
    }
}
