//! Processes, packets and the execution context.
//!
//! A [`Process`] is an actor living on a simulated host. It reacts to
//! three stimuli — start-of-simulation, packet arrival and timer expiry —
//! and interacts with the world exclusively through the [`Context`] handed
//! to each callback: sending packets, arming timers, spending CPU time and
//! bumping named counters.

use std::any::Any;
use std::sync::Arc;

use mmcs_util::rng::DetRng;
use mmcs_util::time::{SimDuration, SimTime};

use crate::engine::{CounterId, EngineCore, PendingSend};
use crate::net::HostId;

/// Identifies a process registered with a [`Simulation`](crate::Simulation).
///
/// Ids are handed out in registration order starting at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(pub u64);

impl ProcessId {
    /// The underlying numeric value.
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl From<u64> for ProcessId {
    fn from(raw: u64) -> Self {
        ProcessId(raw)
    }
}

impl std::fmt::Display for ProcessId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "proc-{}", self.0)
    }
}

/// A packet delivered to a process.
///
/// The payload is reference-counted (atomically: a queued packet must
/// not stop a `Simulation` from being `Send`) — a fan-out of one logical
/// message to hundreds of receivers does not copy the payload;
/// `wire_bytes` is the size the network charges for serialization.
#[derive(Debug, Clone)]
pub struct Packet {
    /// The sending process.
    pub src: ProcessId,
    /// The destination process.
    pub dst: ProcessId,
    /// Bytes occupied on the wire (headers + payload).
    pub wire_bytes: usize,
    /// When the sender handed the packet to its NIC.
    pub sent_at: SimTime,
    payload: Arc<dyn Any + Send + Sync>,
}

impl Packet {
    pub(crate) fn new(
        src: ProcessId,
        dst: ProcessId,
        wire_bytes: usize,
        sent_at: SimTime,
        payload: Arc<dyn Any + Send + Sync>,
    ) -> Self {
        Self {
            src,
            dst,
            wire_bytes,
            sent_at,
            payload,
        }
    }

    /// Downcasts the payload to a concrete type.
    pub fn payload<T: 'static>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }

    /// Clones the payload handle (cheap; reference-counted).
    pub fn payload_handle(&self) -> Arc<dyn Any + Send + Sync> {
        Arc::clone(&self.payload)
    }
}

/// An actor running on a simulated host.
///
/// Implementations are sans-IO protocol cores; all effects go through the
/// [`Context`].
pub trait Process {
    /// Called once when the simulation starts.
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// Called when a packet addressed to this process arrives.
    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet);

    /// Called when a timer armed with [`Context::set_timer`] fires.
    ///
    /// `token` is the caller-chosen value passed when arming the timer.
    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let _ = (ctx, token);
    }

    /// Called after [`Simulation::restart_process`](crate::Simulation::restart_process)
    /// revives this process from a crash.
    ///
    /// Timers armed before the crash never fire again, so implementations
    /// must re-arm whatever periodic work they need, and decide which of
    /// their in-memory state a restart preserves (durable) versus resets
    /// (volatile). The default does nothing — a restarted process that
    /// ignores this hook simply stays silent until a packet arrives.
    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }
}

/// The world interface handed to every [`Process`] callback.
///
/// The context tracks virtual CPU time spent during the callback
/// ([`Context::spend_cpu`]); packets sent later in the callback are
/// stamped correspondingly later, and the host CPU stays busy for the
/// total, delaying whatever work is queued behind this callback.
pub struct Context<'a> {
    pub(crate) core: &'a mut EngineCore,
    pub(crate) me: ProcessId,
    pub(crate) host: HostId,
    /// Virtual time at which this callback began executing.
    pub(crate) started_at: SimTime,
    /// CPU time consumed so far within this callback.
    pub(crate) elapsed: SimDuration,
    pub(crate) sends: Vec<PendingSend>,
}

impl<'a> Context<'a> {
    /// The current virtual time: callback start plus CPU already spent.
    pub fn now(&self) -> SimTime {
        self.started_at + self.elapsed
    }

    /// This process's id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The host this process runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The host a process runs on, if it exists.
    pub fn host_of(&self, process: ProcessId) -> Option<HostId> {
        self.core.host_of(process)
    }

    /// Consumes `cost` of virtual CPU time.
    ///
    /// Subsequent [`Context::send`] calls are stamped after the cost, and
    /// the host CPU remains busy for the callback's total cost, delaying
    /// queued deliveries to any process on this host.
    pub fn spend_cpu(&mut self, cost: SimDuration) {
        self.elapsed += cost;
    }

    /// Sends `payload` to `dst` as a `wire_bytes`-sized packet through the
    /// simulated network (loopback if `dst` is on the same host).
    ///
    /// The payload may be any `Send + Sync + 'static` value (packets sit
    /// in the event queue, and a `Simulation` is `Send`); receivers
    /// downcast with [`Packet::payload`]. For fan-out, pass an `Arc` via
    /// [`Context::send_shared`] to avoid cloning.
    pub fn send<T: Send + Sync + 'static>(&mut self, dst: ProcessId, payload: T, wire_bytes: usize) {
        self.send_shared(dst, Arc::new(payload), wire_bytes);
    }

    /// Sends an already reference-counted payload (cheap fan-out).
    pub fn send_shared(
        &mut self,
        dst: ProcessId,
        payload: Arc<dyn Any + Send + Sync>,
        wire_bytes: usize,
    ) {
        self.sends.push(PendingSend {
            src: self.me,
            dst,
            wire_bytes,
            at: self.now(),
            payload,
        });
    }

    /// Arms a timer that fires on this process after `delay`, passing
    /// `token` back to [`Process::on_timer`].
    ///
    /// The deadline saturates at the far future rather than wrapping, so
    /// arming a timer with a near-`u64::MAX` delay means "never fires"
    /// instead of firing in the past.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let at = self.now().saturating_add(delay);
        self.core.schedule_timer(self.me, self.host, at, token);
    }

    /// A deterministic RNG stream private to this process's host.
    ///
    /// Draws depend only on the host's own execution order, not on how
    /// its events interleave with other hosts' — so replays stay
    /// bit-identical.
    pub fn rng(&mut self) -> &mut DetRng {
        self.core.host_rng(self.host)
    }

    /// Adds `delta` to the named metric counter. This looks the name up
    /// on every call; a counter bumped per packet is resolved once with
    /// [`Context::counter_id`] and bumped with [`Context::bump`].
    ///
    /// A counter exists from its first bump, even a zero one.
    pub fn count(&mut self, name: &str, delta: u64) {
        self.core.count(name, delta);
    }

    /// Resolves the named counter to an id for [`Context::bump`]. The id
    /// stays valid for the whole run, restarts included. Resolving does
    /// not create the counter; only a bump does.
    pub fn counter_id(&mut self, name: &str) -> CounterId {
        self.core.metrics.intern(name)
    }

    /// Adds `delta` to a counter resolved with [`Context::counter_id`]:
    /// the same counter [`Context::count`] bumps by name.
    pub fn bump(&mut self, id: CounterId, delta: u64) {
        self.core.metrics.bump(id, delta);
    }

    /// Records a floating-point observation under `name` (mean/min/max are
    /// retained; see [`Simulation::stat`](crate::Simulation::stat)).
    pub fn observe(&mut self, name: &str, value: f64) {
        self.core.observe(name, value);
    }

    /// Requests that the simulation stop after the current event.
    pub fn stop(&mut self) {
        self.core.request_stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_display_and_conversion() {
        let id = ProcessId::from(9);
        assert_eq!(id.to_string(), "proc-9");
        assert_eq!(id.value(), 9);
    }

    #[test]
    fn packet_payload_downcast() {
        let p = Packet::new(
            ProcessId(1),
            ProcessId(2),
            100,
            SimTime::ZERO,
            Arc::new(42u32),
        );
        assert_eq!(p.payload::<u32>(), Some(&42));
        assert_eq!(p.payload::<u64>(), None);
        let handle = p.payload_handle();
        assert_eq!(handle.downcast_ref::<u32>(), Some(&42));
    }
}
