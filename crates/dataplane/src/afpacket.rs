//! Live-NIC [`FrameIo`] backend over Linux `AF_PACKET` sockets
//! (feature `af_packet`).
//!
//! This is the first backend that puts the runtime on a wire instead of
//! a capture: a raw packet socket bound to one interface, batched with
//! `recvmmsg`/`sendmmsg` so one syscall moves a whole [`FrameIo`] batch
//! in each direction, with ingress payloads drawn from the same
//! [`BufferPool`] recycling discipline as every other backend — after
//! warm-up the receive path allocates nothing per frame.
//!
//! Portability and safety:
//!
//! * **All `unsafe` and all FFI live in this one module**, behind the
//!   `af_packet` feature. Default builds of the crate keep
//!   `#![forbid(unsafe_code)]`; with the feature on, the crate-level
//!   gate drops to `deny` and only this module opts out, with every
//!   `unsafe` block carrying a safety comment and the audited grants in
//!   `xtask/lint-allow.toml`.
//! * **Off Linux the same API compiles as a stub**: [`AfPacketIo::open`]
//!   returns [`std::io::ErrorKind::Unsupported`], so feature-enabled
//!   builds stay green on every platform and callers can probe for
//!   support at runtime.
//! * The FFI declarations target the Linux kernel ABI via glibc-layout
//!   structs (`sockaddr_ll`, `mmsghdr`); they are written out here
//!   rather than pulled from a bindings crate so the dataplane keeps
//!   its zero-new-dependencies policy.
//!
//! The zero-copy `AF_XDP` backend (UMEM + fill/completion rings, the
//! SNIPPETS.md kernel-bypass playbook) slots in behind the same
//! [`FrameIo`] trait as a sibling module when it lands; nothing above
//! this layer changes — `Runtime::drain` already hands whole egress
//! batches to `tx_batch`.
//!
//! Semantics against the FrameIo contract:
//!
//! * A live NIC has no natural end-of-stream: `rx_batch` reports
//!   [`RxPoll::Idle`] when the socket has nothing to deliver and
//!   [`RxPoll::Eof`] only after [`AfPacketIo::stop_handle`] has been
//!   triggered (sticky from then on), which is how a runtime over a live
//!   interface is shut down.
//! * `at_ns` is the backend's own monotonic ingress clock (nanoseconds
//!   since the socket was opened), matching the "ingress clock of a live
//!   backend" wording on [`RawFrame::at_ns`].
//! * Transmission never blocks the collector: sends use `MSG_DONTWAIT`,
//!   and frames the kernel will not take right now are shed and counted
//!   (`tx_errors`), mirroring the drop-oldest discipline everywhere else
//!   in the runtime.

// Confine the crate-wide unsafe opt-out to exactly this module.
#![allow(unsafe_code)]

/// Counters of one [`AfPacketIo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AfPacketStats {
    /// Frames delivered upstream by `rx_batch`.
    pub rx_frames: u64,
    /// Receive syscalls that failed for a reason other than "no data".
    pub rx_errors: u64,
    /// Frames accepted by the kernel for transmission.
    pub tx_frames: u64,
    /// Frames shed because the kernel refused them (full tx queue,
    /// interface down, oversized frame).
    pub tx_errors: u64,
}

/// Configuration of an [`AfPacketIo`].
#[derive(Debug, Clone)]
pub struct AfPacketConfig {
    /// Interface to bind to (e.g. `"eth0"`, `"lo"`).
    pub interface: String,
    /// Largest frame the receive path can accept; ingress buffers are
    /// sized to this. Standard Ethernet + a little slack by default.
    pub frame_capacity: usize,
    /// Upper bound on frames moved per `recvmmsg`/`sendmmsg` call
    /// (batches larger than this are split across syscalls).
    pub batch_capacity: usize,
    /// Spare ingress buffers kept for recycling; sized like the replay
    /// backend's pool so a many-worker runtime never allocates in steady
    /// state.
    pub pool_slots: usize,
    /// Put the interface in promiscuous mode for the socket's lifetime —
    /// a fronthaul middlebox usually filters on a VF MAC it does not own.
    pub promiscuous: bool,
}

impl AfPacketConfig {
    /// Defaults for `interface`: 2048-byte frames, 64-frame syscall
    /// batches, an 8192-buffer pool, no promiscuous mode.
    pub fn new(interface: &str) -> AfPacketConfig {
        AfPacketConfig {
            interface: interface.to_string(),
            frame_capacity: 2048,
            batch_capacity: 64,
            pool_slots: 8192,
            promiscuous: false,
        }
    }
}

#[cfg(target_os = "linux")]
mod imp {
    //! The real Linux implementation. Everything `unsafe` is in here.

    use std::ffi::CString;
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    use std::os::raw::{c_char, c_int, c_uint, c_void};
    use std::ptr;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    use rb_core::telemetry::counters;

    use super::{AfPacketConfig, AfPacketStats};
    use crate::io::{FrameIo, RawFrame, RxPoll};
    use crate::pool::{BufferPool, PooledBuf};

    // Linux ABI constants (uapi/linux/if_ether.h, bits/socket.h,
    // linux/if_packet.h). Fixed by the kernel ABI, not the libc flavour.
    const AF_PACKET: c_int = 17;
    const SOCK_RAW: c_int = 3;
    const SOCK_NONBLOCK: c_int = 0o4000;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    /// `ETH_P_ALL` in network byte order, as `sll_protocol`/`socket()`
    /// want it.
    const ETH_P_ALL_BE: u16 = 0x0003u16.to_be();
    const SOL_PACKET: c_int = 263;
    const PACKET_ADD_MEMBERSHIP: c_int = 1;
    const PACKET_MR_PROMISC: c_int = 1;
    const PACKET_IGNORE_OUTGOING: c_int = 23;
    const MSG_DONTWAIT: c_int = 0x40;
    const EAGAIN: i32 = 11;

    /// `struct sockaddr_ll` (linux/if_packet.h).
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct SockaddrLl {
        sll_family: u16,
        sll_protocol: u16,
        sll_ifindex: c_int,
        sll_hatype: u16,
        sll_pkttype: u8,
        sll_halen: u8,
        sll_addr: [u8; 8],
    }

    /// `struct packet_mreq` (linux/if_packet.h).
    #[repr(C)]
    struct PacketMreq {
        mr_ifindex: c_int,
        mr_type: u16,
        mr_alen: u16,
        mr_address: [u8; 8],
    }

    /// `struct iovec` (bits/uio.h).
    #[repr(C)]
    struct IoVec {
        iov_base: *mut c_void,
        iov_len: usize,
    }

    /// `struct msghdr` (glibc layout: `msg_iovlen`/`msg_controllen` are
    /// `size_t`).
    #[repr(C)]
    struct MsgHdr {
        msg_name: *mut c_void,
        msg_namelen: u32,
        msg_iov: *mut IoVec,
        msg_iovlen: usize,
        msg_control: *mut c_void,
        msg_controllen: usize,
        msg_flags: c_int,
    }

    /// `struct mmsghdr` (bits/socket.h).
    #[repr(C)]
    struct MMsgHdr {
        msg_hdr: MsgHdr,
        msg_len: c_uint,
    }

    // The C library the binary already links. Declared here instead of
    // depending on the `libc` crate: five calls, one module, zero new
    // dependencies.
    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn bind(fd: c_int, addr: *const SockaddrLl, len: u32) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
        fn if_nametoindex(name: *const c_char) -> c_uint;
        fn recvmmsg(
            fd: c_int,
            msgvec: *mut MMsgHdr,
            vlen: c_uint,
            flags: c_int,
            timeout: *mut c_void,
        ) -> c_int;
        fn sendmmsg(fd: c_int, msgvec: *mut MMsgHdr, vlen: c_uint, flags: c_int) -> c_int;
    }

    /// A raw `AF_PACKET` socket bound to one interface, speaking the
    /// batched [`FrameIo`] contract. See the module docs for semantics.
    pub struct AfPacketIo {
        fd: OwnedFd,
        pool: BufferPool,
        frame_cap: usize,
        batch_cap: usize,
        /// Pre-filled ingress buffers waiting for the next `recvmmsg`;
        /// each is already resized to `frame_cap`.
        rx_bufs: Vec<PooledBuf>,
        /// Scatter-gather scratch rebuilt per syscall (capacity fixed at
        /// open, pointers never outlive the call they are built for).
        iovecs: Vec<IoVec>,
        hdrs: Vec<MMsgHdr>,
        epoch: Instant,
        stop: Arc<AtomicBool>,
        stopped_seen: bool,
        stats: AfPacketStats,
    }

    // SAFETY: the raw pointers inside `iovecs`/`hdrs` are scratch that is
    // rebuilt from `rx_bufs`/the tx batch immediately before each syscall
    // and is dead once the call returns; between calls they are never
    // dereferenced, so moving the whole struct to another thread (what
    // `Send` permits — there is no `Sync` claim) cannot invalidate any
    // pointer that will still be read. Everything else is `Send` already.
    #[allow(unsafe_code)]
    unsafe impl Send for AfPacketIo {}

    impl AfPacketIo {
        /// Open a raw packet socket on `cfg.interface` and bind it.
        /// Requires `CAP_NET_RAW`; fails with `PermissionDenied` without
        /// it and `NotFound` for an unknown interface.
        pub fn open(cfg: &AfPacketConfig) -> io::Result<AfPacketIo> {
            let name = CString::new(cfg.interface.as_str())
                .map_err(|_| io::Error::from(io::ErrorKind::InvalidInput))?;
            // SAFETY: `name` is a valid NUL-terminated string for the
            // duration of the call; if_nametoindex only reads it.
            let ifindex = unsafe { if_nametoindex(name.as_ptr()) };
            if ifindex == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no such interface: {}", cfg.interface),
                ));
            }
            // SAFETY: plain syscall, no pointers.
            let raw = unsafe {
                socket(
                    AF_PACKET,
                    SOCK_RAW | SOCK_NONBLOCK | SOCK_CLOEXEC,
                    c_int::from(ETH_P_ALL_BE),
                )
            };
            if raw < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `raw` is a freshly returned, valid descriptor we
            // exclusively own from this point on.
            let fd = unsafe { OwnedFd::from_raw_fd(raw) };

            let addr = SockaddrLl {
                sll_family: u16::try_from(AF_PACKET).unwrap_or(17),
                sll_protocol: ETH_P_ALL_BE,
                sll_ifindex: c_int::try_from(ifindex).unwrap_or(c_int::MAX),
                sll_hatype: 0,
                sll_pkttype: 0,
                sll_halen: 0,
                sll_addr: [0; 8],
            };
            // SAFETY: `addr` is a properly initialized sockaddr_ll and
            // the length is its exact size; bind only reads it.
            let rc = unsafe {
                bind(
                    fd.as_raw_fd(),
                    &addr,
                    u32::try_from(std::mem::size_of::<SockaddrLl>()).unwrap_or(0),
                )
            };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }

            // Loopback delivers every frame twice to packet sockets (once
            // outgoing, once incoming); real NICs echo transmissions back
            // too. Filter the outgoing copies in the kernel so the
            // runtime never reprocesses its own output. Best effort: the
            // option is newer than some LTS kernels.
            let one: c_int = 1;
            // SAFETY: passes a pointer to a live c_int and its size.
            let _ = unsafe {
                setsockopt(
                    fd.as_raw_fd(),
                    SOL_PACKET,
                    PACKET_IGNORE_OUTGOING,
                    (&raw const one).cast(),
                    u32::try_from(std::mem::size_of::<c_int>()).unwrap_or(4),
                )
            };

            if cfg.promiscuous {
                let mreq = PacketMreq {
                    mr_ifindex: c_int::try_from(ifindex).unwrap_or(c_int::MAX),
                    mr_type: u16::try_from(PACKET_MR_PROMISC).unwrap_or(1),
                    mr_alen: 0,
                    mr_address: [0; 8],
                };
                // SAFETY: passes a pointer to a live packet_mreq and its
                // exact size.
                let rc = unsafe {
                    setsockopt(
                        fd.as_raw_fd(),
                        SOL_PACKET,
                        PACKET_ADD_MEMBERSHIP,
                        (&raw const mreq).cast(),
                        u32::try_from(std::mem::size_of::<PacketMreq>()).unwrap_or(16),
                    )
                };
                if rc != 0 {
                    return Err(io::Error::last_os_error());
                }
            }

            let batch_cap = cfg.batch_capacity.max(1);
            Ok(AfPacketIo {
                fd,
                pool: BufferPool::new(cfg.pool_slots.max(batch_cap)),
                frame_cap: cfg.frame_capacity.max(64),
                batch_cap,
                rx_bufs: Vec::with_capacity(batch_cap),
                iovecs: Vec::with_capacity(batch_cap),
                hdrs: Vec::with_capacity(batch_cap),
                epoch: Instant::now(),
                stop: Arc::new(AtomicBool::new(false)),
                stopped_seen: false,
                stats: AfPacketStats::default(),
            })
        }

        /// A handle that makes `rx_batch` report `Eof` (sticky) once set —
        /// the shutdown signal for a runtime draining a live interface.
        pub fn stop_handle(&self) -> Arc<AtomicBool> {
            Arc::clone(&self.stop)
        }

        /// Counters accumulated so far.
        pub fn stats(&self) -> AfPacketStats {
            self.stats
        }

        /// Times the ingress pool had to allocate because no recycled
        /// buffer was free.
        pub fn pool_grows(&self) -> u64 {
            self.pool.grows()
        }

        fn stopped(&mut self) -> bool {
            if !self.stopped_seen && self.stop.load(Ordering::Acquire) {
                self.stopped_seen = true;
            }
            self.stopped_seen
        }

        /// Top `rx_bufs` up to `want` buffers, each sized to `frame_cap`.
        fn refill_rx_bufs(&mut self, want: usize) {
            while self.rx_bufs.len() < want {
                let mut buf = self.pool.take();
                buf.vec_mut().resize(self.frame_cap, 0);
                self.rx_bufs.push(buf);
            }
        }

        /// Build `iovecs`/`hdrs` over the first `n` of `bufs` (receive) —
        /// the pointers are valid exactly until the buffers next move.
        fn build_rx_headers(&mut self, n: usize) {
            self.iovecs.clear();
            self.hdrs.clear();
            for buf in self.rx_bufs.iter_mut().take(n) {
                let v = buf.vec_mut();
                self.iovecs.push(IoVec { iov_base: v.as_mut_ptr().cast(), iov_len: v.len() });
            }
            for iov in self.iovecs.iter_mut() {
                self.hdrs.push(MMsgHdr {
                    msg_hdr: MsgHdr {
                        msg_name: ptr::null_mut(),
                        msg_namelen: 0,
                        msg_iov: &raw mut *iov,
                        msg_iovlen: 1,
                        msg_control: ptr::null_mut(),
                        msg_controllen: 0,
                        msg_flags: 0,
                    },
                    msg_len: 0,
                });
            }
        }

        /// Monotonic nanoseconds since the socket was opened.
        fn now_ns(&self) -> u64 {
            u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
        }
    }

    impl FrameIo for AfPacketIo {
        fn rx_batch(&mut self, out: &mut Vec<RawFrame>, max: usize) -> RxPoll {
            if self.stopped() {
                return RxPoll::Eof;
            }
            if max == 0 {
                return RxPoll::Idle;
            }
            let want = max.min(self.batch_cap);
            self.refill_rx_bufs(want);
            self.build_rx_headers(want);
            // SAFETY: `hdrs`/`iovecs` point into `rx_bufs` buffers that
            // are alive and unaliased for the duration of the call;
            // `vlen` equals the number of headers built; the null timeout
            // is allowed (MSG_DONTWAIT makes the call non-blocking).
            let got = unsafe {
                recvmmsg(
                    self.fd.as_raw_fd(),
                    self.hdrs.as_mut_ptr(),
                    c_uint::try_from(want).unwrap_or(1),
                    MSG_DONTWAIT,
                    ptr::null_mut(),
                )
            };
            if got < 0 {
                let errno = io::Error::last_os_error().raw_os_error().unwrap_or(0);
                if errno != EAGAIN {
                    counters::bump(&mut self.stats.rx_errors);
                }
                return RxPoll::Idle;
            }
            let got = usize::try_from(got).unwrap_or(0);
            if got == 0 {
                return RxPoll::Idle;
            }
            let at_ns = self.now_ns();
            for (k, mut buf) in self.rx_bufs.drain(..got).enumerate() {
                let len = self.hdrs.get(k).map_or(0, |h| usize::try_from(h.msg_len).unwrap_or(0));
                buf.vec_mut().truncate(len.min(self.frame_cap));
                out.push(RawFrame { at_ns, bytes: buf });
            }
            counters::bump_by(&mut self.stats.rx_frames, counters::as_count(got));
            RxPoll::Ready(got)
        }

        fn tx_batch(&mut self, frames: &mut Vec<RawFrame>) -> usize {
            let total = frames.len();
            let mut sent_total = 0usize;
            let mut chunk_start = 0usize;
            while chunk_start < total {
                let chunk_end = (chunk_start.saturating_add(self.batch_cap)).min(total);
                self.iovecs.clear();
                self.hdrs.clear();
                if let Some(chunk) = frames.get_mut(chunk_start..chunk_end) {
                    for f in chunk.iter_mut() {
                        let v = f.bytes.vec_mut();
                        self.iovecs
                            .push(IoVec { iov_base: v.as_mut_ptr().cast(), iov_len: v.len() });
                    }
                }
                for iov in self.iovecs.iter_mut() {
                    self.hdrs.push(MMsgHdr {
                        msg_hdr: MsgHdr {
                            msg_name: ptr::null_mut(),
                            msg_namelen: 0,
                            msg_iov: &raw mut *iov,
                            msg_iovlen: 1,
                            msg_control: ptr::null_mut(),
                            msg_controllen: 0,
                            msg_flags: 0,
                        },
                        msg_len: 0,
                    });
                }
                let vlen = self.hdrs.len();
                // SAFETY: headers point into `frames` payloads that stay
                // alive and unmoved for the duration of the call; `vlen`
                // equals the number of headers built.
                let sent = unsafe {
                    sendmmsg(
                        self.fd.as_raw_fd(),
                        self.hdrs.as_mut_ptr(),
                        c_uint::try_from(vlen).unwrap_or(0),
                        MSG_DONTWAIT,
                    )
                };
                let sent = if sent < 0 { 0 } else { usize::try_from(sent).unwrap_or(0) };
                sent_total = sent_total.saturating_add(sent);
                chunk_start = chunk_start.saturating_add(sent);
                if sent < vlen {
                    // The kernel stopped early (full queue, error on one
                    // frame): shed the rest rather than block or spin.
                    break;
                }
            }
            frames.clear();
            counters::bump_by(&mut self.stats.tx_frames, counters::as_count(sent_total));
            counters::bump_by(
                &mut self.stats.tx_errors,
                counters::as_count(total.saturating_sub(sent_total)),
            );
            sent_total
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    //! Compile-time stub for non-Linux targets: the API exists, `open`
    //! reports `Unsupported`, and no value can ever be constructed.

    use std::io;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    use super::{AfPacketConfig, AfPacketStats};
    use crate::io::{FrameIo, RawFrame, RxPoll};

    /// Stub backend: `AF_PACKET` sockets exist only on Linux, so this
    /// type is uninhabited off-Linux and [`AfPacketIo::open`] always
    /// fails with [`io::ErrorKind::Unsupported`].
    pub struct AfPacketIo {
        never: std::convert::Infallible,
    }

    impl AfPacketIo {
        /// Always `Err(Unsupported)` on this platform.
        pub fn open(_cfg: &AfPacketConfig) -> io::Result<AfPacketIo> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "AF_PACKET sockets are Linux-only; this build is the documented stub",
            ))
        }

        /// Unreachable (no value of this type exists off-Linux).
        pub fn stop_handle(&self) -> Arc<AtomicBool> {
            match self.never {}
        }

        /// Unreachable (no value of this type exists off-Linux).
        pub fn stats(&self) -> AfPacketStats {
            match self.never {}
        }

        /// Unreachable (no value of this type exists off-Linux).
        pub fn pool_grows(&self) -> u64 {
            match self.never {}
        }
    }

    impl FrameIo for AfPacketIo {
        fn rx_batch(&mut self, _out: &mut Vec<RawFrame>, _max: usize) -> RxPoll {
            match self.never {}
        }

        fn tx_batch(&mut self, _frames: &mut Vec<RawFrame>) -> usize {
            match self.never {}
        }
    }
}

pub use imp::AfPacketIo;

/// Compile-time marker tests: the stub and the real backend expose the
/// same surface, so code written against one compiles against the other.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_on_missing_interface_fails_cleanly() {
        let err = AfPacketIo::open(&AfPacketConfig::new("rb-definitely-not-an-if0"))
            .err()
            .expect("must not open a nonexistent interface");
        #[cfg(target_os = "linux")]
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "unexpected error: {err}");
        #[cfg(not(target_os = "linux"))]
        assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
    }

    #[test]
    fn config_defaults_are_sane() {
        let cfg = AfPacketConfig::new("lo");
        assert_eq!(cfg.interface, "lo");
        assert!(cfg.frame_capacity >= 1514, "must hold a full Ethernet frame");
        assert!(cfg.batch_capacity >= 1);
        assert!(!cfg.promiscuous);
    }
}
