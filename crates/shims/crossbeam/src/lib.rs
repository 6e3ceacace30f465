//! Offline stand-in for the `crossbeam` crate.
//!
//! The build environment has no registry access, so this vendors the
//! tiny subset the workspace uses: `crossbeam::channel::{unbounded,
//! Sender, Receiver, RecvTimeoutError}` implemented over
//! [`std::sync::mpsc`]. Semantics match for the single-consumer use in
//! the federation layer (`mmcs_broker::cluster`: node-worker ingress,
//! link-sender queues, barrier and flush replies); std's `Sender` is
//! `Sync` since 1.72.

/// Multi-producer channels (std-backed).
pub mod channel {
    use std::sync::mpsc;
    use std::time::Duration;

    /// The sending half of an unbounded channel.
    pub struct Sender<T>(mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    /// The receiving half of an unbounded channel.
    pub struct Receiver<T>(mpsc::Receiver<T>);

    /// Error returned by [`Sender::send`] when the receiver is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// All senders disconnected.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived before the deadline.
        Timeout,
        /// All senders disconnected.
        Disconnected,
    }

    /// Creates an unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(rx))
    }

    impl<T> Sender<T> {
        /// Sends a message; fails only if the receiver is dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value).map_err(|mpsc::SendError(v)| SendError(v))
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or all senders disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv().map_err(|_| RecvError)
        }

        /// Blocks up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }

        /// Receives without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvTimeoutError};
    use std::time::Duration;

    #[test]
    fn send_recv_across_threads() {
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        std::thread::spawn(move || tx2.send(7).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)), Ok(7));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }
}
