//! Process fleet management for multi-process benchmark runs.
//!
//! [`NodePool::spawn`] launches `n` `cbm-node` processes (siblings of
//! the running binary in the cargo target dir), each of which dials
//! back to the driver's loopback control listener and announces its id
//! ([`crate::proto::Ctrl::Hello`]). Legs are then dispatched over the
//! control streams ([`NodePool::run_batch`]) and the nodes' engine runs
//! happen in **their** process — each hosting a full replica set over
//! its own in-process TCP mesh — so a matrix parallelises across
//! processes while every leg's deterministic columns stay a pure
//! function of `(config, seed)`.
//!
//! Cleanup is layered: [`NodePool::shutdown`] (and `Drop`) sends
//! [`crate::proto::Ctrl::Shutdown`] and waits briefly, then kills
//! stragglers; a node whose driver dies instead sees EOF on the
//! control stream and exits itself. CI adds a belt-and-suspenders
//! `pkill cbm-node` in an `always()` step (`docs/DEPLOYMENT.md`).

use crate::proto::{recv_ctrl, send_ctrl, Ctrl, LegSpec};
use cbm_store::StoreReport;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// One spawned `cbm-node` and its control stream.
struct NodeHandle {
    child: Child,
    stream: TcpStream,
}

/// A fleet of `cbm-node` worker processes on loopback.
pub struct NodePool {
    nodes: Vec<Option<NodeHandle>>,
}

/// Path of the `cbm-node` binary: a sibling of the currently running
/// executable (cargo puts every workspace binary of a profile in one
/// directory, and integration tests run from `<dir>/deps/`).
fn cbm_node_path() -> io::Result<std::path::PathBuf> {
    let me = std::env::current_exe()?;
    let dir = me
        .parent()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "executable has no parent dir"))?;
    let direct = dir.join("cbm-node");
    if direct.exists() {
        return Ok(direct);
    }
    let from_deps = dir
        .parent()
        .map(|p| p.join("cbm-node"))
        .filter(|p| p.exists());
    from_deps.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            format!("cbm-node not found next to {}", me.display()),
        )
    })
}

/// Send one leg down a node's control stream and block for its report.
fn dispatch(handle: &mut NodeHandle, node: usize, spec: &LegSpec) -> io::Result<StoreReport> {
    send_ctrl(&mut handle.stream, &Ctrl::Run(Box::new(spec.clone())))?;
    match recv_ctrl(&mut handle.stream)? {
        Some(Ctrl::Report(report)) => Ok(*report),
        Some(Ctrl::Error(text)) => Err(io::Error::other(format!(
            "node {node} failed leg '{}': {text}",
            spec.name
        ))),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("node {node}: expected Report, got {other:?}"),
        )),
    }
}

impl NodePool {
    /// Spawn `n` nodes and wait for all of them to dial back and
    /// announce themselves. Nodes inherit stderr (their per-leg
    /// progress lines interleave with the driver's, prefixed by id).
    pub fn spawn(n: usize) -> io::Result<NodePool> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let exe = cbm_node_path()?;
        let mut children: Vec<Option<Child>> = Vec::with_capacity(n);
        for id in 0..n {
            let child = Command::new(&exe)
                .arg("serve")
                .arg("--control")
                .arg(addr.to_string())
                .arg("--id")
                .arg(id.to_string())
                .stdin(Stdio::null())
                .spawn()?;
            children.push(Some(child));
        }
        // accept-and-slot by announced id, so accept order never
        // matters (same discipline as the data-plane handshake)
        let mut nodes: Vec<Option<NodeHandle>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let id = match recv_ctrl(&mut stream)? {
                Some(Ctrl::Hello(id)) => id as usize,
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("expected Hello from node, got {other:?}"),
                    ))
                }
            };
            if id >= n || nodes[id].is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("node announced bad or duplicate id {id}"),
                ));
            }
            nodes[id] = Some(NodeHandle {
                child: children[id].take().expect("child handle present"),
                stream,
            });
        }
        Ok(NodePool { nodes })
    }

    /// Run a batch of legs across the fleet — leg `i` on node
    /// `i % len`, every node working its share in parallel (each node
    /// is one process, so the parallelism is real even from a
    /// single-threaded driver). Reports come back in spec order; the
    /// first node failure aborts the batch.
    pub fn run_batch(&mut self, specs: &[LegSpec]) -> io::Result<Vec<StoreReport>> {
        let n = self.nodes.len();
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "empty node pool",
            ));
        }
        let mut results: Vec<Option<io::Result<StoreReport>>> =
            specs.iter().map(|_| None).collect();
        std::thread::scope(|s| {
            let workers: Vec<_> = self
                .nodes
                .iter_mut()
                .enumerate()
                .filter_map(|(node, h)| {
                    let handle = h.as_mut()?;
                    let mine: Vec<usize> = (node..specs.len()).step_by(n).collect();
                    if mine.is_empty() {
                        return None;
                    }
                    Some(s.spawn(move || {
                        mine.into_iter()
                            .map(|i| (i, dispatch(handle, node, &specs[i])))
                            .collect::<Vec<_>>()
                    }))
                })
                .collect();
            for w in workers {
                if let Ok(list) = w.join() {
                    for (i, r) in list {
                        results[i] = Some(r);
                    }
                }
            }
        });
        results
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|| {
                    Err(io::Error::new(
                        io::ErrorKind::NotConnected,
                        "leg was assigned to a dead node",
                    ))
                })
            })
            .collect()
    }

    /// Graceful shutdown: ask every node to exit, give the fleet a
    /// grace period, then kill stragglers. Returns the number of nodes
    /// that had to be killed.
    pub fn shutdown(&mut self) -> usize {
        let mut handles: Vec<NodeHandle> = self.nodes.iter_mut().filter_map(Option::take).collect();
        for h in &mut handles {
            let _ = send_ctrl(&mut h.stream, &Ctrl::Shutdown);
            let _ = h.stream.shutdown(std::net::Shutdown::Both);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut killed = 0;
        for h in &mut handles {
            loop {
                match h.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    _ => {
                        let _ = h.child.kill();
                        let _ = h.child.wait();
                        killed += 1;
                        break;
                    }
                }
            }
        }
        killed
    }
}

impl Drop for NodePool {
    fn drop(&mut self) {
        self.shutdown();
    }
}
