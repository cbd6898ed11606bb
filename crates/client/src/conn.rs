//! Connection internals: pipelining, write-coalescing, reply routing.

use spade_net::proto::{decode_server, encode_client, ClientMsg, ServerMsg};
use spade_net::wire::{encode_frame, read_frame, WireError, DEFAULT_MAX_FRAME, PROTOCOL_VERSION};
use spade_server::{QueryRequest, QueryResponse, ServiceError};
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

/// Delay before the first reconnect attempt after a failed dial; doubles
/// per consecutive failure up to [`RECONNECT_BACKOFF_MAX`], resets on
/// success.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(10);
const RECONNECT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Who the client is to the server.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Tenant namespace presented in the handshake.
    pub namespace: String,
    /// The namespace's auth token, when it has one.
    pub token: Option<String>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            namespace: "default".into(),
            token: None,
        }
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Could not connect or the transport failed mid-call.
    Transport(WireError),
    /// The server refused the handshake.
    Handshake(String),
    /// The connection died (disconnect, framing error) while the request
    /// was in flight; its fate on the server is unknown (the server
    /// cancels in-flight queries on disconnect).
    ConnectionLost,
    /// The service answered with an error.
    Service(ServiceError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Handshake(m) => write!(f, "handshake refused: {m}"),
            ClientError::ConnectionLost => write!(f, "connection lost with the request in flight"),
            ClientError::Service(e) => write!(f, "service: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Transport(WireError::Io(e))
    }
}

type ReplyTx = mpsc::Sender<Result<QueryResponse, ClientError>>;

/// One TCP connection: its pending-reply table, its coalescing outbox, and
/// its reader thread.
struct Conn {
    stream: TcpStream,
    next_id: AtomicU64,
    pending: Mutex<HashMap<u64, ReplyTx>>,
    /// Encoded frames waiting to be written, plus how many there are.
    outbox: Mutex<(Vec<u8>, u64)>,
    /// Serialises socket writes. A submitter that finds this contended
    /// simply queues its frame; the current holder drains the outbox, so
    /// concurrent submitters share one `write_all` (transparent batching,
    /// the group-commit pattern the WAL uses for fsync).
    flush: Mutex<()>,
    dead: AtomicBool,
    frames_sent: AtomicU64,
    flushes: AtomicU64,
    reader: Mutex<Option<thread::JoinHandle<()>>>,
}

impl Conn {
    fn connect(addr: impl ToSocketAddrs, config: &ClientConfig) -> Result<Arc<Conn>, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();

        // Handshake, synchronously, before the reader thread exists.
        let hello = ClientMsg::Hello {
            version: PROTOCOL_VERSION,
            namespace: config.namespace.clone(),
            token: config.token.clone(),
        };
        let mut buf = Vec::new();
        encode_frame(&mut buf, 0, &encode_client(&hello));
        stream.write_all(&buf)?;
        let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME).map_err(ClientError::Transport)?;
        match decode_server(&frame.payload).map_err(ClientError::Transport)? {
            ServerMsg::HelloOk { version, .. } if version == PROTOCOL_VERSION => {}
            ServerMsg::HelloOk { version, .. } => {
                return Err(ClientError::Handshake(format!(
                    "server answered with protocol v{version}, client speaks v{PROTOCOL_VERSION}"
                )));
            }
            ServerMsg::HelloErr { message } => return Err(ClientError::Handshake(message)),
            ServerMsg::Reply(_) => {
                return Err(ClientError::Transport(WireError::Corrupt(
                    "reply before handshake completed".into(),
                )));
            }
        }

        let conn = Arc::new(Conn {
            stream,
            next_id: AtomicU64::new(1), // 0 was the handshake
            pending: Mutex::new(HashMap::new()),
            outbox: Mutex::new((Vec::new(), 0)),
            flush: Mutex::new(()),
            dead: AtomicBool::new(false),
            frames_sent: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            reader: Mutex::new(None),
        });
        let reader_conn = Arc::clone(&conn);
        let handle = thread::Builder::new()
            .name("spade-client-reader".into())
            .spawn(move || reader_loop(&reader_conn))
            .expect("spawn client reader");
        *conn.reader.lock().unwrap() = Some(handle);
        Ok(conn)
    }

    /// Queue one encoded frame and flush the outbox. Concurrent callers
    /// coalesce: whoever holds the flush lock writes everything queued so
    /// far in one syscall.
    fn send_frame(self: &Arc<Conn>, request_id: u64, payload: &[u8]) -> Result<(), ClientError> {
        {
            let mut outbox = self.outbox.lock().unwrap();
            encode_frame(&mut outbox.0, request_id, payload);
            outbox.1 += 1;
        }
        let _guard = self.flush.lock().unwrap();
        let (batch, frames) = {
            let mut outbox = self.outbox.lock().unwrap();
            (
                std::mem::take(&mut outbox.0),
                std::mem::replace(&mut outbox.1, 0),
            )
        };
        if batch.is_empty() {
            // A predecessor holding the lock already wrote our frame.
            return Ok(());
        }
        self.frames_sent.fetch_add(frames, Ordering::Relaxed);
        self.flushes.fetch_add(1, Ordering::Relaxed);
        match (&self.stream).write_all(&batch) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.fail(ClientError::ConnectionLost);
                Err(ClientError::Transport(WireError::Io(e)))
            }
        }
    }

    /// Mark the connection dead and fail every pending reply.
    fn fail(&self, _why: ClientError) {
        self.dead.store(true, Ordering::Release);
        let mut pending = self.pending.lock().unwrap();
        for (_, tx) in pending.drain() {
            let _ = tx.send(Err(ClientError::ConnectionLost));
        }
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

fn reader_loop(conn: &Arc<Conn>) {
    loop {
        // `&TcpStream` implements `Read`, so the reader needs no clone.
        let frame = match read_frame(&mut &conn.stream, DEFAULT_MAX_FRAME) {
            Ok(f) => f,
            Err(_) => {
                conn.fail(ClientError::ConnectionLost);
                return;
            }
        };
        match decode_server(&frame.payload) {
            Ok(ServerMsg::Reply(reply)) => {
                let tx = conn.pending.lock().unwrap().remove(&frame.request_id);
                if let Some(tx) = tx {
                    let _ = tx.send(reply.map_err(ClientError::Service));
                }
                // A reply to an unknown id (e.g. a cancel that raced the
                // response) is dropped, not fatal.
            }
            Ok(ServerMsg::HelloOk { .. }) | Ok(ServerMsg::HelloErr { .. }) | Err(_) => {
                conn.fail(ClientError::ConnectionLost);
                return;
            }
        }
    }
}

/// A submitted request whose reply has not been waited on yet. Holding
/// several of these pipelines the connection: all are in flight at once
/// and complete in whatever order the service finishes them.
pub struct PendingReply {
    conn: Arc<Conn>,
    id: u64,
    rx: mpsc::Receiver<Result<QueryResponse, ClientError>>,
}

impl PendingReply {
    /// Block until the reply arrives (or the connection dies).
    pub fn wait(self) -> Result<QueryResponse, ClientError> {
        match self.rx.recv() {
            Ok(r) => r,
            Err(_) => Err(ClientError::ConnectionLost),
        }
    }

    /// Ask the server to cooperatively cancel this request. The reply
    /// still arrives — [`ServiceError::Cancelled`] if the cancel won, the
    /// result if it lost the race.
    pub fn cancel(&self) -> Result<(), ClientError> {
        self.conn
            .send_frame(self.id, &encode_client(&ClientMsg::Cancel))
    }
}

struct Backoff {
    /// Earliest instant the next dial may be attempted.
    next_attempt: Instant,
    /// Delay applied after the *next* failure (doubles, capped).
    delay: Duration,
}

/// A pipelining client for one SPADE server over one connection. A dead
/// connection is redialed lazily: the next submission attempts a
/// reconnect (under a capped exponential backoff), so a client survives a
/// server restart without being rebuilt.
pub struct Client {
    /// The current connection, behind a lock so a dead one can be replaced
    /// in place — handles submitted on it keep their own `Arc` and fail
    /// independently.
    conn: RwLock<Arc<Conn>>,
    retry: Mutex<Backoff>,
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let live = !self.conn.read().unwrap().dead.load(Ordering::Acquire);
        f.debug_struct("Client").field("live", &live).finish()
    }
}

impl Client {
    /// Connect and perform the handshake. The resolved address is kept
    /// for lazy reconnects.
    pub fn connect(
        addr: impl ToSocketAddrs + Copy,
        config: ClientConfig,
    ) -> Result<Client, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(ClientError::Transport(WireError::Io(io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "address resolved to nothing",
            ))));
        }
        Ok(Client {
            conn: RwLock::new(Conn::connect(&addrs[..], &config)?),
            retry: Mutex::new(Backoff {
                next_attempt: Instant::now(),
                delay: RECONNECT_BACKOFF,
            }),
            addrs,
            config,
        })
    }

    /// The live connection, redialing a dead one at most once per backoff
    /// window. Concurrent callers serialize on the retry lock; whoever
    /// dials successfully resets the backoff for everyone.
    fn live(&self) -> Result<Arc<Conn>, ClientError> {
        let conn = Arc::clone(&self.conn.read().unwrap());
        if !conn.dead.load(Ordering::Acquire) {
            return Ok(conn);
        }
        let mut retry = self.retry.lock().unwrap();
        // A predecessor may have revived the connection while we waited.
        let current = Arc::clone(&self.conn.read().unwrap());
        if !current.dead.load(Ordering::Acquire) {
            return Ok(current);
        }
        if Instant::now() < retry.next_attempt {
            return Err(ClientError::ConnectionLost);
        }
        match Conn::connect(&self.addrs[..], &self.config) {
            Ok(conn) => {
                *self.conn.write().unwrap() = Arc::clone(&conn);
                retry.delay = RECONNECT_BACKOFF;
                retry.next_attempt = Instant::now();
                Ok(conn)
            }
            Err(e) => {
                retry.next_attempt = Instant::now() + retry.delay;
                retry.delay = (retry.delay * 2).min(RECONNECT_BACKOFF_MAX);
                Err(e)
            }
        }
    }

    /// Submit without waiting: returns a [`PendingReply`] handle. Submit
    /// many, then wait on each — that is request pipelining, and it is
    /// where the wire protocol's throughput comes from.
    pub fn submit(&self, request: &QueryRequest) -> Result<PendingReply, ClientError> {
        let conn = self.live()?;
        let id = conn.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        conn.pending.lock().unwrap().insert(id, tx);
        let payload = encode_client(&ClientMsg::Request(request.clone()));
        if let Err(e) = conn.send_frame(id, &payload) {
            conn.pending.lock().unwrap().remove(&id);
            return Err(e);
        }
        Ok(PendingReply { conn, id, rx })
    }

    /// Submit and wait: the one-liner for non-pipelined callers.
    pub fn query(&self, request: &QueryRequest) -> Result<QueryResponse, ClientError> {
        self.submit(request)?.wait()
    }

    /// `(frames_sent, socket_flushes)` on the current connection. Frames
    /// per flush > 1 means write coalescing batched concurrent
    /// submissions.
    pub fn batching_stats(&self) -> (u64, u64) {
        let c = self.conn.read().unwrap();
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        (load(&c.frames_sent), load(&c.flushes))
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        let conn = Arc::clone(&self.conn.read().unwrap());
        conn.dead.store(true, Ordering::Release);
        let _ = conn.stream.shutdown(Shutdown::Both);
        let reader = conn.reader.lock().unwrap().take();
        if let Some(h) = reader {
            let _ = h.join();
        }
    }
}
