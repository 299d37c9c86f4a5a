//! The connection table: one slab cell per TCP connection, the ids that
//! name the cells, the pins queued events hold on them, and the table's
//! part of the engine image. `Ctx::tcp_connect` allocates a cell during
//! the callback; cells are freed only after a dispatch, when the last
//! queued event of a Closed connection drains.

use crate::host::{HostAddr, HostId};
use obs::snap::{Snap, SnapError, SnapReader, SnapWriter};
use obs::{snap_enum, snap_struct};

/// Identifies a TCP connection inside one simulation.
///
/// Packs a slab index in the low 32 bits and a generation in the high
/// bits: connection storage is recycled once a connection closes and its
/// last in-flight event drains, and the generation check turns a stale id
/// still held by a host into a no-op instead of an aliased access.
pub type ConnId = usize;

const CONN_IDX_BITS: u32 = 32;
const CONN_IDX_MASK: usize = (1 << CONN_IDX_BITS) - 1;

fn conn_pack(generation: u32, idx: usize) -> ConnId {
    debug_assert!(idx <= CONN_IDX_MASK);
    ((generation as usize) << CONN_IDX_BITS) | idx
}

fn conn_idx(id: ConnId) -> usize {
    id & CONN_IDX_MASK
}

fn conn_gen(id: ConnId) -> u32 {
    (id >> CONN_IDX_BITS) as u32
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ConnState {
    Dialing,
    Established,
    Closed,
}

snap_enum!(ConnState { 0 => Dialing, 1 => Established, 2 => Closed });

#[derive(Debug, Clone, Copy)]
pub(crate) struct ConnInfo {
    pub(crate) initiator: HostId,
    pub(crate) acceptor: Option<HostId>,
    pub(crate) remote_addr: HostAddr,
    pub(crate) local_addr: HostAddr,
    pub(crate) state: ConnState,
    pub(crate) rtt_ms: u32,
}

snap_struct!(ConnInfo {
    initiator,
    acceptor,
    remote_addr,
    local_addr,
    state,
    rtt_ms
});

// Slab cell for one connection; storage is recycled under a generation bump.
struct ConnEntry {
    /// Bumped every time the cell is freed: any id carrying an older
    /// generation is stale, and every access through it is a no-op.
    generation: u32,
    /// Scheduled events still referencing this connection. The cell is
    /// recycled only once the connection is Closed *and* this hits zero,
    /// so a queued event can never observe a reused cell.
    pending: u32,
    info: ConnInfo,
}

snap_struct!(ConnEntry {
    generation,
    pending,
    info
});

/// Every connection cell of one simulation, and the recycled ones.
#[derive(Default)]
pub(crate) struct ConnTable {
    cells: Vec<ConnEntry>,
    /// Recycled cells, reused LIFO.
    free: Vec<u32>,
}

impl ConnTable {
    /// Open a cell for a new dial from `initiator`: the most recently
    /// freed cell, else a new one. Its RTT reads 0 until the engine
    /// draws the estimate.
    pub(crate) fn alloc(
        &mut self,
        initiator: HostId,
        local_addr: HostAddr,
        remote_addr: HostAddr,
    ) -> ConnId {
        let info = ConnInfo {
            initiator,
            acceptor: None,
            remote_addr,
            local_addr,
            state: ConnState::Dialing,
            rtt_ms: 0,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                let e = &mut self.cells[idx as usize];
                debug_assert_eq!(e.pending, 0);
                e.info = info;
                idx as usize
            }
            None => {
                self.cells.push(ConnEntry {
                    generation: 0,
                    pending: 0,
                    info,
                });
                self.cells.len() - 1
            }
        };
        conn_pack(self.cells[idx].generation, idx)
    }

    /// Gen-checked read; stale or garbage ids yield `None`.
    pub(crate) fn get(&self, id: ConnId) -> Option<&ConnInfo> {
        self.cells
            .get(conn_idx(id))
            .filter(|e| e.generation == conn_gen(id))
            .map(|e| &e.info)
    }

    /// Gen-checked mutable read.
    pub(crate) fn get_mut(&mut self, id: ConnId) -> Option<&mut ConnInfo> {
        self.cells
            .get_mut(conn_idx(id))
            .filter(|e| e.generation == conn_gen(id))
            .map(|e| &mut e.info)
    }

    /// Read a connection the caller knows is current: one a queued event
    /// pins, or one on a host's live list.
    pub(crate) fn info(&self, id: ConnId) -> &ConnInfo {
        &self.cells[conn_idx(id)].info
    }

    /// A queued event now references `id`: its cell stays put until the
    /// event dispatches.
    pub(crate) fn pin(&mut self, id: ConnId) {
        let e = &mut self.cells[conn_idx(id)];
        debug_assert_eq!(e.generation, conn_gen(id), "pushing event for a stale conn");
        e.pending += 1;
    }

    /// Un-pin a connection after its event dispatched; recycle the cell
    /// once the connection is Closed with nothing left in flight.
    /// Freeing bumps the generation, so any id a host still holds goes
    /// stale rather than aliasing the next tenant.
    pub(crate) fn unpin(&mut self, id: ConnId) {
        let idx = conn_idx(id);
        let e = &mut self.cells[idx];
        if e.generation != conn_gen(id) {
            return;
        }
        e.pending -= 1;
        if e.pending == 0 && e.info.state == ConnState::Closed {
            e.generation = e.generation.wrapping_add(1);
            self.free.push(idx as u32);
        }
    }

    /// Append the cells and the free list, order-exact: the free list's
    /// LIFO order decides the ids of later dials.
    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        self.cells.snap(w);
        self.free.snap(w);
    }

    /// Read what [`ConnTable::snap`] wrote, refusing a free list that
    /// names a cell still in use or names one cell twice: either would
    /// hand one cell to two later dials.
    pub(crate) fn unsnap(r: &mut SnapReader<'_>) -> Result<ConnTable, SnapError> {
        let cells: Vec<ConnEntry> = Snap::unsnap(r)?;
        let free: Vec<u32> = Snap::unsnap(r)?;
        let mut listed = vec![false; cells.len()];
        let is_free = |e: &ConnEntry| e.info.state == ConnState::Closed && e.pending == 0;
        if !free.iter().all(|&i| {
            cells.get(i as usize).is_some_and(is_free)
                && !std::mem::replace(&mut listed[i as usize], true)
        }) {
            return Err(SnapError::Corrupt("free-list entry is not a free cell"));
        }
        Ok(ConnTable { cells, free })
    }

    /// Does every cell's endpoint name one of `n_hosts` hosts?
    pub(crate) fn endpoints_within(&self, n_hosts: usize) -> bool {
        self.cells
            .iter()
            .all(|e| e.info.initiator < n_hosts && e.info.acceptor.is_none_or(|a| a < n_hosts))
    }

    /// Is `id` a current, Established connection with `host` at one end —
    /// what a host's live list may hold?
    pub(crate) fn is_open_at(&self, id: ConnId, host: HostId) -> bool {
        self.get(id).is_some_and(|c| {
            c.state == ConnState::Established && (c.initiator == host || c.acceptor == Some(host))
        })
    }

    /// Check the pins against the queued events' references: each must
    /// name its cell's current generation, and each cell's `pending`
    /// must equal the number of events that name it. A count too low
    /// underflows when the last event drains; one too high keeps a
    /// closed cell from ever being freed, so later dials get ids the
    /// original run never handed out.
    pub(crate) fn check_pins(
        &self,
        refs: impl IntoIterator<Item = ConnId>,
    ) -> Result<(), SnapError> {
        let mut counts = vec![0u32; self.cells.len()];
        for id in refs {
            if self.get(id).is_none() {
                return Err(SnapError::Corrupt("event names a stale conn"));
            }
            counts[conn_idx(id)] += 1;
        }
        if self.cells.iter().zip(&counts).any(|(e, &n)| e.pending != n) {
            return Err(SnapError::Corrupt("conn pending count is off"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{addr, lossless, meta, probe_world, Log, Probe};
    use crate::engine::{Ev, NetSim, Prov};
    use crate::host::{Ctx, Host, TcpEvent};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn conn_cells_two_dials_could_share_are_rejected() {
        // Host 0 dials a vacant address (cell 0: failed, drained, freed);
        // host 1 dials host 2 (cell 1: open, live at both ends, nothing
        // in flight).
        let world =
            || probe_world(|i, p| p.tcp_target = [addr(9), addr(3)].get(i as usize - 1).copied());
        let run = |mutate: fn(&mut NetSim)| {
            let mut sim = world();
            sim.run_until(1_000);
            assert_eq!(sim.conns.free, [0]);
            assert_eq!(sim.slots[1].live_conns, [1]);
            mutate(&mut sim);
            world().restore(&sim.snapshot().unwrap())
        };
        assert!(run(|_| {}).is_ok());
        let hostile: [fn(&mut NetSim); 7] = [
            |s| s.conns.free.push(0),                           // listed twice
            |s| s.conns.free.push(1),                           // an open cell
            |s| s.slots[1].live_conns[0] += 1 << CONN_IDX_BITS, // wrong generation
            |s| s.slots[0].live_conns.push(1),                  // not an endpoint
            |s| s.conns.cells[1].pending += 1,                  // a pin no event holds
            |s| {
                // An event in flight on cell 1 that its count misses.
                s.push(
                    s.now,
                    2,
                    Ev::TcpClose {
                        conn: 1,
                        to_initiator: false,
                    },
                );
                s.conns.cells[1].pending -= 1;
            },
            |s| {
                // An event on the freed cell's old id.
                let ev = Ev::TcpClose {
                    conn: 0,
                    to_initiator: true,
                };
                s.queue.push(s.now, 1, (0, Prov { cause: 0, depth: 0 }, ev));
            },
        ];
        for (case, mutate) in hostile.into_iter().enumerate() {
            assert!(run(mutate).is_err(), "hostile case {case} restored");
        }
    }

    #[test]
    fn conn_cells_recycle_and_stale_ids_are_inert() {
        // Dial, close, wait for the wire to drain, dial again: the second
        // dial must reuse the slab cell under a bumped generation, and
        // the first (stale) id must be inert — no send, zero RTT.
        struct Redialer {
            target: HostAddr,
            conns: Rc<RefCell<Vec<ConnId>>>,
            stale_rtt: Rc<RefCell<Vec<u32>>>,
        }
        impl Host for Redialer {
            fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
            fn on_start(&mut self, ctx: &mut Ctx) {
                let c = ctx.tcp_connect(self.target);
                self.conns.borrow_mut().push(c);
            }
            fn on_udp(&mut self, _: &mut Ctx, _: HostAddr, _: &[u8]) {}
            fn on_tcp(&mut self, ctx: &mut Ctx, event: TcpEvent) {
                if let TcpEvent::Connected { conn, .. } = event {
                    ctx.tcp_close(conn);
                    if self.conns.borrow().len() == 1 {
                        ctx.set_timer(1_000, 1);
                    }
                }
            }
            fn on_timer(&mut self, ctx: &mut Ctx, _: u64) {
                let first = self.conns.borrow()[0];
                // Poking the stale id must be a no-op, not an aliased
                // access to the recycled cell.
                ctx.tcp_send(first, b"stale".to_vec());
                self.stale_rtt.borrow_mut().push(ctx.rtt_ms(first));
                let again = ctx.tcp_connect(self.target);
                self.conns.borrow_mut().push(again);
            }
        }
        let conns: Rc<RefCell<Vec<ConnId>>> = Rc::default();
        let stale_rtt: Rc<RefCell<Vec<u32>>> = Rc::default();
        let b_log: Log = Rc::default();
        let mut sim = NetSim::new(lossless());
        let ha = sim.add_host(
            addr(1),
            meta(true),
            Box::new(Redialer {
                target: addr(2),
                conns: conns.clone(),
                stale_rtt: stale_rtt.clone(),
            }),
        );
        let hb = sim.add_host(addr(2), meta(true), Box::new(Probe::new("b", b_log)));
        sim.schedule_start(ha, 0);
        sim.schedule_start(hb, 0);
        sim.run_until(10_000);
        let conns = conns.borrow();
        assert_eq!(conns.len(), 2, "second dial never happened");
        assert_eq!(conn_idx(conns[0]), conn_idx(conns[1]), "cell not recycled");
        assert_eq!(
            conn_gen(conns[1]),
            conn_gen(conns[0]) + 1,
            "generation not bumped on free"
        );
        assert_eq!(*stale_rtt.borrow(), vec![0], "stale id leaked a live RTT");
        assert_eq!(sim.tcp_counters().connects, 2);
        assert_eq!(sim.tcp_counters().bytes, 0, "stale send was delivered");
    }
}
