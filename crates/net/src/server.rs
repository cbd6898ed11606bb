//! The TCP front door over a [`QueryService`].
//!
//! One accept thread hands each connection to its own reader thread, which
//! spawns a paired writer thread; the pair gives every connection the
//! pipelined, out-of-order request/response discipline the protocol
//! promises:
//!
//! - The **reader** performs the handshake (protocol version, namespace,
//!   token → [`QueryService::session_in`]), then decodes request frames
//!   and submits each through [`spade_server::Session::submit_routed`]
//!   with a fresh [`CancelToken`] recorded in the connection's in-flight
//!   map. `Cancel` frames cooperatively cancel the in-flight request with
//!   the same id.
//! - The **writer** drains a `(request_id, reply)` channel fed directly by
//!   the service's worker threads and writes each reply as a frame echoing
//!   the request's id — whichever query finishes first answers first,
//!   regardless of submission order.
//!
//! When the reader sees EOF or a framing error it cancels every in-flight
//! token: a vanished client stops consuming GPU budget at the next grid
//! cell boundary, and the admission ledgers (device-wide and per-tenant)
//! are released by the normal worker completion path, so a disconnect can
//! never leak reserved bytes.
//!
//! [`NetServer::stop`] is the graceful path: stop accepting, drain the
//! service ([`QueryService::shutdown`] — every queued and running query
//! completes and its reply reaches its writer channel), then shut down
//! the read half of every socket. Each unblocked reader joins its writer
//! — which flushes the drained replies — before the socket closes, so a
//! graceful stop never loses an answered request.

use crate::proto::{decode_client, encode_server, ClientMsg, ServerMsg};
use crate::wire::{read_frame, write_frame, DEFAULT_MAX_FRAME, PROTOCOL_VERSION};
use spade_core::CancelToken;
use spade_server::{QueryService, Reply, ServiceError};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Tuning for [`NetServer::serve`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Per-frame size cap enforced before allocation (both directions use
    /// the same constant; the client enforces its own copy).
    pub max_frame: u32,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

struct Inner {
    service: Arc<QueryService>,
    config: NetServerConfig,
    stop: AtomicBool,
    /// One entry per live connection: a stream clone (to unblock its
    /// reader on shutdown) and the reader thread's handle.
    conns: Mutex<Vec<(TcpStream, thread::JoinHandle<()>)>>,
}

/// A running TCP listener bound to a [`QueryService`].
pub struct NetServer {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Mutex<Option<thread::JoinHandle<()>>>,
}

impl NetServer {
    /// Bind `addr` (use port 0 for an ephemeral port — [`NetServer::addr`]
    /// reports the actual one) and start accepting connections against
    /// `service`.
    pub fn serve(
        service: Arc<QueryService>,
        addr: impl ToSocketAddrs,
        config: NetServerConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Non-blocking accept so the accept loop can observe `stop`
        // without needing a wake-up connection.
        listener.set_nonblocking(true)?;
        let inner = Arc::new(Inner {
            service,
            config,
            stop: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let accept_inner = Arc::clone(&inner);
        let accept = thread::Builder::new()
            .name("spade-net-accept".into())
            .spawn(move || accept_loop(&accept_inner, listener))
            .expect("spawn accept thread");
        Ok(NetServer {
            inner,
            addr,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service this server fronts.
    pub fn service(&self) -> &Arc<QueryService> {
        &self.inner.service
    }

    /// Graceful shutdown: stop accepting, drain the service (queued and
    /// running queries complete and their replies are written), then close
    /// the remaining connections. Idempotent; `Drop` calls it.
    pub fn stop(&self) {
        if self.inner.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        if let Some(h) = self.accept.lock().unwrap().take() {
            let _ = h.join();
        }
        // Drain before closing sockets: in-flight requests finish and
        // their replies reach the writer threads. New submissions are
        // answered `Shutdown` while draining.
        self.inner.service.shutdown();
        let conns = std::mem::take(&mut *self.inner.conns.lock().unwrap());
        // Read half only: this unblocks each reader (EOF), whose epilogue
        // joins its writer — so replies already drained into the writer
        // channels still reach the client before the socket closes.
        for (stream, _) in &conns {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for (_, handle) in conns {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(inner: &Arc<Inner>, listener: TcpListener) {
    let mut next_conn = 0u64;
    while !inner.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // The accepted socket must block: reader and writer
                // threads rely on blocking reads/writes.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let Ok(clone) = stream.try_clone() else {
                    continue;
                };
                let conn_inner = Arc::clone(inner);
                let handle = thread::Builder::new()
                    .name(format!("spade-net-conn-{next_conn}"))
                    .spawn(move || handle_conn(&conn_inner, stream))
                    .expect("spawn connection thread");
                next_conn += 1;
                let mut conns = inner.conns.lock().unwrap();
                // Prune entries whose reader already exited so a chatty
                // workload of short connections does not grow the list.
                conns.retain(|(_, h)| !h.is_finished());
                conns.push((clone, handle));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Handshake, then pump frames until disconnect. Runs on the connection's
/// reader thread.
fn handle_conn(inner: &Arc<Inner>, mut stream: TcpStream) {
    let max_frame = inner.config.max_frame;

    // ---- Handshake: first frame must be Hello. ----
    let hello = match read_frame(&mut stream, max_frame) {
        Ok(f) => f,
        Err(_) => return,
    };
    let (version, namespace, token) = match decode_client(&hello.payload) {
        Ok(ClientMsg::Hello {
            version,
            namespace,
            token,
        }) => (version, namespace, token),
        _ => {
            // Anything else first is a protocol violation; say why and
            // hang up.
            let msg = ServerMsg::HelloErr {
                message: "expected Hello as the first frame".into(),
            };
            let _ = write_frame(&mut stream, hello.request_id, &encode_server(&msg));
            return;
        }
    };
    if version != PROTOCOL_VERSION {
        let msg = ServerMsg::HelloErr {
            message: format!(
                "unsupported protocol version {version} (server speaks {PROTOCOL_VERSION})"
            ),
        };
        let _ = write_frame(&mut stream, hello.request_id, &encode_server(&msg));
        return;
    }
    let session = match inner.service.session_in(&namespace, token.as_deref()) {
        Ok(s) => s,
        Err(e) => {
            let msg = ServerMsg::HelloErr {
                message: e.to_string(),
            };
            let _ = write_frame(&mut stream, hello.request_id, &encode_server(&msg));
            return;
        }
    };
    let ok = ServerMsg::HelloOk {
        version: PROTOCOL_VERSION,
        session: session.id(),
    };
    if write_frame(&mut stream, hello.request_id, &encode_server(&ok)).is_err() {
        return;
    }

    // ---- Steady state: reader pumps requests, writer pumps replies. ----
    let in_flight: Arc<Mutex<HashMap<u64, CancelToken>>> = Arc::new(Mutex::new(HashMap::new()));
    let (tx, rx) = mpsc::channel::<(u64, Reply)>();
    let writer = {
        let mut stream = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        // The epilogue joins the writer before closing the socket (so a
        // graceful stop delivers every drained reply); a peer that stops
        // reading must not be able to wedge that join on a full socket
        // buffer, so writes time out.
        let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
        let in_flight = Arc::clone(&in_flight);
        thread::Builder::new()
            .name("spade-net-writer".into())
            .spawn(move || {
                while let Ok((id, reply)) = rx.recv() {
                    in_flight.lock().unwrap().remove(&id);
                    let mut payload = encode_server(&ServerMsg::Reply(reply));
                    // The reader enforces `max_frame` on receive, client
                    // side included: a reply over the cap would be framed,
                    // sent, rejected by the client as FrameTooLarge, and
                    // take the whole connection (and every other in-flight
                    // request) down with it. Substitute a small in-band
                    // error instead — the request fails, the connection
                    // lives. `len` counts the 8-byte request id plus the
                    // payload, so the same sum is compared here.
                    let framed = payload.len() as u64 + 8;
                    if framed > u64::from(max_frame) {
                        let err = ServiceError::ReplyTooLarge {
                            size: framed,
                            max: u64::from(max_frame),
                        };
                        payload = encode_server(&ServerMsg::Reply(Err(err)));
                    }
                    if write_frame(&mut stream, id, &payload).is_err() {
                        // Client gone: stop writing. Dropping `rx` makes
                        // workers' sends no-ops (ReplySink ignores a
                        // closed channel).
                        break;
                    }
                }
            })
            .expect("spawn writer thread")
    };

    // Closed, corrupt, too-large, io — framing errors are not recoverable
    // mid-stream, so any read failure ends the loop.
    while let Ok(frame) = read_frame(&mut stream, max_frame) {
        match decode_client(&frame.payload) {
            Ok(ClientMsg::Request(request)) => {
                let token = CancelToken::new();
                let mut map = in_flight.lock().unwrap();
                if map.contains_key(&frame.request_id) {
                    // Reusing an in-flight id would make two replies
                    // indistinguishable; protocol violation.
                    break;
                }
                map.insert(frame.request_id, token.clone());
                drop(map);
                session.submit_routed(request, token, frame.request_id, tx.clone());
            }
            Ok(ClientMsg::Cancel) => {
                if let Some(t) = in_flight.lock().unwrap().get(&frame.request_id) {
                    t.cancel();
                }
            }
            Ok(ClientMsg::Hello { .. }) | Err(_) => break,
        }
    }

    // Disconnect (or protocol violation): cancel whatever is still in
    // flight so the engine stops at the next cell boundary; the worker
    // completion path releases the admission ledgers as usual.
    for (_, token) in in_flight.lock().unwrap().iter() {
        token.cancel();
    }
    drop(tx);
    // Join the writer BEFORE closing the socket: on a graceful stop the
    // service has already drained every in-flight reply into the channel,
    // and closing first would race the writer and lose answered requests.
    // The writer exits once every outstanding reply has been sent (or the
    // socket broke / a write timed out) and all sender clones held by
    // queued jobs are gone — cancelled jobs still complete and reply.
    let _ = writer.join();
    let _ = stream.shutdown(Shutdown::Both);
}
