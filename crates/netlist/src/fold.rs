//! Flat constant-fold replay — the structural core of overlay-based
//! incremental pruning evaluation.
//!
//! Pruning a gate set replaces each selected net with its dominant
//! constant and re-synthesizes:
//! `opt::apply_constants = sweep(replay(..))`, where both passes run
//! through the hash-consing, constant-folding
//! [`NetlistBuilder`](crate::NetlistBuilder). That
//! rebuild is exact but allocation-heavy: two full builder passes plus a
//! fresh [`Netlist`] per explored candidate.
//!
//! [`FoldedCircuit::apply`] performs the *same two passes* symbolically
//! on flat arrays: no [`Node`] vector, no port clones, no intermediate
//! netlist — just per-node kind/operand slots, an injectively-keyed
//! dedup map and the exact fold rules of the builder, mirrored method
//! for method. The result is node-for-node identical to the rebuilt
//! netlist (the differential property suite in
//! `crates/synth/tests/proptest_fold.rs` pins
//! `FoldedCircuit::apply(..).materialize(..) == opt::apply_constants(..)`
//! on random netlists × substitution sets), which is what lets overlay
//! evaluation reproduce area/power/timing **bit for bit** without ever
//! constructing the pruned netlist.
//!
//! On top of the structure, every folded node carries a
//! [`Provenance`]: a source-netlist net whose value stream (under the
//! substitution) equals the folded node's, possibly inverted. Builder
//! folds are function-preserving identities, so the image of source net
//! `n` always streams `n`'s substituted value; the only nodes created
//! *besides* images are inverter intermediates (from the mux
//! constant-arm folds), whose streams are the inversion of their
//! operand's. Inversion flips every sample, so toggle counts are
//! preserved exactly — the provenance is what lets a masked simulation
//! of the *base* circuit stand in for a simulation of the pruned one
//! when accounting switching activity.
//!
//! # The cone fold
//!
//! A pruning search folds thousands of masks of one base circuit, and
//! a mask changes only part of it. [`FoldIndex`] records, once per
//! base, the base's own replay — its nodes, provenance and signature
//! map — plus its consumer table. [`FoldIndex::fold`] then re-folds,
//! in id order against that map, only the nodes the mask changes, and
//! returns the [`FoldedCircuit`] that [`FoldedCircuit::apply_sorted`]
//! builds, node for node. A node is re-folded (*pending*) when
//!
//! * it is masked;
//! * an operand's image changed;
//! * a node the replay created earlier took its signature (a *merge*:
//!   hash-consing keeps the first occurrence, so the base node folds
//!   into the new one);
//! * it is a NAND3/NOR3 whose AND3/OR3 companion changed or vanished
//!   (the NAND3/NOR3 fold looks that companion up).
//!
//! Every other node replays to itself. The sweep then needs no fold
//! rules: one reverse pass marks what reaches an output, and one
//! forward pass renumbers the live nodes, re-sorts commutative
//! operands and re-creates a dead AND3/OR3 companion ahead of each
//! live NAND3/NOR3 — all a sweep of an already-folded replay does.
//!
//! The index needs a *canonical* base: one whose replay without a
//! substitution reproduces it node for node. Every `opt::optimize`
//! output is; [`FoldIndex::new`] checks it.
//!
//! # Examples
//!
//! ```
//! use std::collections::BTreeMap;
//! use pax_netlist::{fold::{FoldIndex, FoldScratch, FoldedCircuit}, NetlistBuilder};
//!
//! let mut b = NetlistBuilder::new("t");
//! let x = b.input_port("x", 3);
//! let a = b.and2(x[0], x[1]);
//! let y = b.xor2(a, x[2]);
//! b.output_port("y", vec![y].into());
//! let nl = b.finish();
//!
//! // Force the AND to 1: y folds to !x2, the AND cone dies.
//! let mut subst = BTreeMap::new();
//! subst.insert(a, true);
//! let folded = FoldedCircuit::apply(&nl, &subst);
//! assert_eq!(folded.gate_count(), 1); // a single inverter survives
//!
//! // The cone fold re-folds only what the mask changes, to the same circuit.
//! let index = FoldIndex::new(&nl).unwrap();
//! let mut scratch = FoldScratch::default();
//! let cone = index.fold(&[(a, true)], &mut scratch);
//! assert_eq!(cone.nodes(), folded.nodes());
//! ```

use std::collections::BTreeMap;

use crate::traverse::Fanout;
use crate::{Gate, GateKind, NetId, Netlist, NetlistError, Node, Port};

/// Which source-netlist value stream a folded node carries.
///
/// Under the substitution the fold was built with, the folded node's
/// per-sample value equals the (substituted) value of `source` —
/// inverted when `inverted` is set. Inversion flips every sample, so
/// toggle counts are identical either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Provenance {
    /// The source-netlist net streaming the same values.
    pub source: NetId,
    /// Whether the folded node streams the complement.
    pub inverted: bool,
}

/// One node of a [`FoldedCircuit`] — the flat mirror of [`Node`].
/// Unused operand slots are padded with `0`, exactly like
/// [`Gate`]'s inline storage (the padding participates in dedup keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldNode {
    /// Primary input: bit `bit` of input port `port`.
    Input {
        /// Index into the source netlist's `input_ports()`.
        port: u16,
        /// Bit position within the port (LSB = 0).
        bit: u16,
    },
    /// A logic gate over earlier folded nodes.
    Gate {
        /// Cell function.
        kind: GateKind,
        /// Operand node indices; only the first `kind.arity()` are real.
        ins: [u32; 3],
    },
}

impl FoldNode {
    /// The gate view: kind plus its real (arity-trimmed) operands.
    pub fn gate(&self) -> Option<(GateKind, &[u32])> {
        match self {
            FoldNode::Gate { kind, ins } => Some((*kind, &ins[..kind.arity()])),
            FoldNode::Input { .. } => None,
        }
    }

    /// The flat mirror of a netlist node.
    fn of(node: &Node) -> Self {
        match node {
            Node::Input { port, bit } => FoldNode::Input { port: *port, bit: *bit },
            Node::Gate(g) => {
                let mut ins = [0u32; 3];
                for (slot, i) in ins.iter_mut().zip(g.inputs()) {
                    *slot = i.index() as u32;
                }
                FoldNode::Gate { kind: g.kind, ins }
            }
        }
    }
}

/// The (kind, operands) signature is at most 8 + 3×32 bits, so it packs
/// injectively into a `u128` — hash-consing needs no collision checks.
fn sig(kind: GateKind, ins: [u32; 3]) -> u128 {
    (kind as u128) | (ins[0] as u128) << 8 | (ins[1] as u128) << 40 | (ins[2] as u128) << 72
}

fn sig_hash(key: u128) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = (key as u64).wrapping_mul(K);
    h = h.rotate_left(29).wrapping_mul(K);
    h ^= ((key >> 64) as u64).wrapping_mul(K);
    h.rotate_left(29).wrapping_mul(K)
}

/// Open-addressing hash-consing table over the injective signatures.
/// This map *is* the fold's hot path (two inserts-or-hits per source
/// gate); linear probing over flat arrays beats `std::HashMap` by a
/// wide margin here and the keys are never deleted.
#[derive(Debug, Clone)]
struct SigMap {
    /// Power-of-two probe mask.
    mask: usize,
    keys: Vec<u128>,
    /// Parallel values; `u32::MAX` marks an empty slot (node ids are
    /// bounded far below it by the compile-time netlist size cap).
    vals: Vec<u32>,
    len: usize,
}

impl Default for SigMap {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl SigMap {
    fn with_capacity(n: usize) -> Self {
        let cap = (n * 2).next_power_of_two().max(16);
        Self { mask: cap - 1, keys: vec![0; cap], vals: vec![u32::MAX; cap], len: 0 }
    }

    /// Empties the map, keeping its capacity.
    fn clear(&mut self) {
        self.vals.fill(u32::MAX);
        self.len = 0;
    }

    /// A read-only lookup.
    fn get(&self, key: u128) -> Option<u32> {
        let mut i = sig_hash(key) as usize & self.mask;
        loop {
            let v = self.vals[i];
            if v == u32::MAX {
                return None;
            }
            if self.keys[i] == key {
                return Some(v);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// One probe for the hash-consing pattern: the existing value, or
    /// the empty slot index the caller will fill via
    /// [`fill`](Self::fill). Growth happens *before* probing, so the
    /// returned slot stays valid.
    fn get_or_slot(&mut self, key: u128) -> Result<u32, usize> {
        if self.len * 4 >= self.mask * 3 {
            self.grow();
        }
        let mut i = sig_hash(key) as usize & self.mask;
        loop {
            let v = self.vals[i];
            if v == u32::MAX {
                return Err(i);
            }
            if self.keys[i] == key {
                return Ok(v);
            }
            i = (i + 1) & self.mask;
        }
    }

    fn fill(&mut self, slot: usize, key: u128, val: u32) {
        debug_assert_eq!(self.vals[slot], u32::MAX);
        self.keys[slot] = key;
        self.vals[slot] = val;
        self.len += 1;
    }

    fn grow(&mut self) {
        let old_keys = std::mem::replace(&mut self.keys, vec![0; (self.mask + 1) * 2]);
        let old_vals = std::mem::replace(&mut self.vals, vec![u32::MAX; (self.mask + 1) * 2]);
        self.mask = self.keys.len() - 1;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if v != u32::MAX {
                match self.get_or_slot(k) {
                    Err(slot) => self.fill(slot, k, v),
                    Ok(_) => unreachable!("duplicate key during rehash"),
                }
            }
        }
    }
}

/// A cone-fold mark: the base node is re-folded.
const PENDING: u8 = 1;
/// A cone-fold mark: the base node's image is not the node itself.
const CHANGED: u8 = 2;

/// The symbolic builder: [`NetlistBuilder`]'s folding, canonicalization
/// and hash-consing rules mirrored method for method on flat arrays.
/// Any change to the builder's fold rules must be reflected here — the
/// `proptest_fold` differential suite enforces the equivalence.
///
/// A from-scratch fold owns every node. A cone fold replays against a
/// [`FoldIndex`]: ids below `base.len()` name the base's nodes, the
/// builder's own nodes follow, and a signature the builder has not
/// created yet may resolve to a base node (see
/// [`base_hit`](Self::base_hit)).
///
/// [`NetlistBuilder`]: crate::NetlistBuilder
#[derive(Debug)]
struct FoldBuilder<'a> {
    /// The base nodes a cone fold replays against (empty otherwise).
    base: &'a [FoldNode],
    /// Their replay provenance, parallel to `base`.
    base_prov: &'a [u64],
    nodes: Vec<FoldNode>,
    /// Per-node provenance in the *previous* pass's id space, packed as
    /// `source << 1 | inverted` (`u64::MAX` = none: constants carry no
    /// stream).
    prov: Vec<u64>,
    dedup: SigMap,
    const0: Option<u32>,
    const1: Option<u32>,
    /// Sweep-pass mode: hash-cons only the AND/OR family. A sweep over
    /// an already-folded circuit can never create duplicate structure —
    /// *except* for the dead AND3/OR3 companions the NAND3/NOR3 folds
    /// re-create, which must dedup against live AND-family gates. The
    /// differential `proptest_fold` suite (full pipeline vs
    /// `opt::apply_constants` on random netlists) guards this
    /// assumption.
    sweep_consing: bool,
    /// The base's signature map, during a cone fold.
    base_sigs: Option<&'a SigMap>,
    /// Per base node: [`PENDING`] and [`CHANGED`] marks (cone fold).
    marks: Vec<u8>,
    /// The base slot whose replay created each of `nodes` (cone fold).
    born: Vec<u32>,
    /// The base slot being replayed (cone fold).
    slot: u32,
}

const PROV_NONE: u64 = u64::MAX;

fn prov_pack(source: u32, inverted: bool) -> u64 {
    (source as u64) << 1 | inverted as u64
}

fn prov_unpack(p: u64) -> Option<Provenance> {
    (p != PROV_NONE)
        .then(|| Provenance { source: NetId::from_index((p >> 1) as usize), inverted: p & 1 == 1 })
}

impl<'a> FoldBuilder<'a> {
    /// `capacity` sizes the node and dedup storage (the source node
    /// count is the right ballpark — folds only shrink it).
    fn with_capacity(capacity: usize) -> Self {
        Self {
            base: &[],
            base_prov: &[],
            nodes: Vec::with_capacity(capacity + 8),
            prov: Vec::with_capacity(capacity + 8),
            dedup: SigMap::with_capacity(capacity + 8),
            const0: None,
            const1: None,
            sweep_consing: false,
            base_sigs: None,
            marks: Vec::new(),
            born: Vec::new(),
            slot: 0,
        }
    }

    /// Number of nodes, base nodes included.
    fn len(&self) -> usize {
        self.base.len() + self.nodes.len()
    }

    fn node(&self, n: u32) -> FoldNode {
        let n = n as usize;
        match n.checked_sub(self.base.len()) {
            Some(own) => self.nodes[own],
            None => self.base[n],
        }
    }

    fn prov_of(&self, n: u32) -> u64 {
        let n = n as usize;
        match n.checked_sub(self.base.len()) {
            Some(own) => self.prov[own],
            None => self.base_prov[n],
        }
    }

    /// Sets a node's provenance. Base nodes already carry theirs, so
    /// only the builder's own nodes are ever set.
    fn set_prov(&mut self, n: u32, p: u64) {
        self.prov[n as usize - self.base.len()] = p;
    }

    fn input(&mut self, port: u16, bit: u16, source: u32) -> u32 {
        let id = self.len() as u32;
        self.nodes.push(FoldNode::Input { port, bit });
        self.prov.push(prov_pack(source, false));
        id
    }

    fn kind_of(&self, n: u32) -> Option<GateKind> {
        match self.node(n) {
            FoldNode::Gate { kind, .. } => Some(kind),
            FoldNode::Input { .. } => None,
        }
    }

    fn is_const(&self, n: u32) -> Option<bool> {
        match self.kind_of(n) {
            Some(GateKind::Const0) => Some(false),
            Some(GateKind::Const1) => Some(true),
            _ => None,
        }
    }

    fn as_not(&self, n: u32) -> Option<u32> {
        match self.node(n) {
            FoldNode::Gate { kind: GateKind::Not, ins } => Some(ins[0]),
            _ => None,
        }
    }

    fn complementary(&self, a: u32, b: u32) -> bool {
        self.as_not(a) == Some(b) || self.as_not(b) == Some(a)
    }

    /// During a cone fold, the base node a signature the builder has not
    /// created resolves to: an earlier unchanged base node, or the slot
    /// being replayed (re-created in place). A later base node with the
    /// signature is not replayed yet; it will merge into the node
    /// created now, so it becomes pending.
    fn base_hit(&mut self, key: u128) -> Option<u32> {
        let j = self.base_sigs?.get(key)?;
        if j == self.slot || (j < self.slot && self.marks[j as usize] & CHANGED == 0) {
            return Some(j);
        }
        if j > self.slot {
            self.marks[j as usize] |= PENDING;
        }
        None
    }

    fn push(&mut self, kind: GateKind, ins: &[u32]) -> u32 {
        let mut arr = [0u32; 3];
        arr[..ins.len()].copy_from_slice(ins);
        if self.sweep_consing
            && !matches!(kind, GateKind::And2 | GateKind::And3 | GateKind::Or2 | GateKind::Or3)
        {
            // Sweep mode: non-AND/OR structure can never repeat, so the
            // dedup probe (and insert) is pure overhead.
            let id = self.len() as u32;
            self.nodes.push(FoldNode::Gate { kind, ins: arr });
            self.prov.push(PROV_NONE);
            return id;
        }
        let key = sig(kind, arr);
        let slot = match self.dedup.get_or_slot(key) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        if let Some(id) = self.base_hit(key) {
            return id;
        }
        let id = self.len() as u32;
        self.nodes.push(FoldNode::Gate { kind, ins: arr });
        self.prov.push(PROV_NONE);
        self.dedup.fill(slot, key, id);
        if self.base_sigs.is_some() {
            self.born.push(self.slot);
        }
        id
    }

    fn push_canonical(&mut self, kind: GateKind, ins: &mut [u32]) -> u32 {
        if kind.is_commutative() {
            ins.sort_unstable();
        }
        self.push(kind, ins)
    }

    fn const0(&mut self) -> u32 {
        if let Some(id) = self.const0 {
            return id;
        }
        let id = self.push(GateKind::Const0, &[]);
        self.const0 = Some(id);
        id
    }

    fn const1(&mut self) -> u32 {
        if let Some(id) = self.const1 {
            return id;
        }
        let id = self.push(GateKind::Const1, &[]);
        self.const1 = Some(id);
        id
    }

    fn constant(&mut self, value: bool) -> u32 {
        if value {
            self.const1()
        } else {
            self.const0()
        }
    }

    fn not(&mut self, a: u32) -> u32 {
        if let Some(v) = self.is_const(a) {
            return self.constant(!v);
        }
        if let Some(x) = self.as_not(a) {
            return x;
        }
        let id = self.push(GateKind::Not, &[a]);
        // A freshly created inverter streams the complement of its
        // operand; a deduped hit keeps its earlier provenance.
        if self.prov_of(id) == PROV_NONE && self.prov_of(a) != PROV_NONE {
            self.set_prov(id, self.prov_of(a) ^ 1);
        }
        id
    }

    fn and2(&mut self, a: u32, b: u32) -> u32 {
        match (self.is_const(a), self.is_const(b)) {
            (Some(false), _) | (_, Some(false)) => return self.const0(),
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        if self.complementary(a, b) {
            return self.const0();
        }
        self.push_canonical(GateKind::And2, &mut [a, b])
    }

    fn nand2(&mut self, a: u32, b: u32) -> u32 {
        match (self.is_const(a), self.is_const(b)) {
            (Some(false), _) | (_, Some(false)) => return self.const1(),
            (Some(true), _) => return self.not(b),
            (_, Some(true)) => return self.not(a),
            _ => {}
        }
        if a == b {
            return self.not(a);
        }
        if self.complementary(a, b) {
            return self.const1();
        }
        self.push_canonical(GateKind::Nand2, &mut [a, b])
    }

    fn or2(&mut self, a: u32, b: u32) -> u32 {
        match (self.is_const(a), self.is_const(b)) {
            (Some(true), _) | (_, Some(true)) => return self.const1(),
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        if self.complementary(a, b) {
            return self.const1();
        }
        self.push_canonical(GateKind::Or2, &mut [a, b])
    }

    fn nor2(&mut self, a: u32, b: u32) -> u32 {
        match (self.is_const(a), self.is_const(b)) {
            (Some(true), _) | (_, Some(true)) => return self.const0(),
            (Some(false), _) => return self.not(b),
            (_, Some(false)) => return self.not(a),
            _ => {}
        }
        if a == b {
            return self.not(a);
        }
        if self.complementary(a, b) {
            return self.const0();
        }
        self.push_canonical(GateKind::Nor2, &mut [a, b])
    }

    fn xor2(&mut self, a: u32, b: u32) -> u32 {
        match (self.is_const(a), self.is_const(b)) {
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            (Some(true), _) => return self.not(b),
            (_, Some(true)) => return self.not(a),
            _ => {}
        }
        if a == b {
            return self.const0();
        }
        if self.complementary(a, b) {
            return self.const1();
        }
        if let (Some(x), Some(y)) = (self.as_not(a), self.as_not(b)) {
            return self.xor2(x, y);
        }
        self.push_canonical(GateKind::Xor2, &mut [a, b])
    }

    fn xnor2(&mut self, a: u32, b: u32) -> u32 {
        match (self.is_const(a), self.is_const(b)) {
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            (Some(false), _) => return self.not(b),
            (_, Some(false)) => return self.not(a),
            _ => {}
        }
        if a == b {
            return self.const1();
        }
        if self.complementary(a, b) {
            return self.const0();
        }
        if let (Some(x), Some(y)) = (self.as_not(a), self.as_not(b)) {
            return self.xnor2(x, y);
        }
        self.push_canonical(GateKind::Xnor2, &mut [a, b])
    }

    /// The 3-input folds filter constant operands exactly like the
    /// builder's `Vec`-based code, on stack arrays (this is a hot
    /// path): `absorbing` short-circuits the whole gate, `neutral`
    /// operands drop out of `live`.
    fn live3(&self, ops: [u32; 3], absorbing: bool) -> Result<([u32; 3], usize), ()> {
        let mut live = [0u32; 3];
        let mut n = 0;
        for &x in &ops {
            match self.is_const(x) {
                Some(v) if v == absorbing => return Err(()),
                Some(_) => {}
                None => {
                    live[n] = x;
                    n += 1;
                }
            }
        }
        Ok((live, n))
    }

    fn and3(&mut self, a: u32, b: u32, c: u32) -> u32 {
        let Ok((live, n)) = self.live3([a, b, c], false) else {
            return self.const0();
        };
        match n {
            0 => self.const1(),
            1 => live[0],
            2 => self.and2(live[0], live[1]),
            _ => {
                if live[0] == live[1] {
                    return self.and2(live[0], live[2]);
                }
                if live[1] == live[2] || live[0] == live[2] {
                    return self.and2(live[0], live[1]);
                }
                if self.complementary(live[0], live[1])
                    || self.complementary(live[1], live[2])
                    || self.complementary(live[0], live[2])
                {
                    return self.const0();
                }
                self.push_canonical(GateKind::And3, &mut [live[0], live[1], live[2]])
            }
        }
    }

    fn or3(&mut self, a: u32, b: u32, c: u32) -> u32 {
        let Ok((live, n)) = self.live3([a, b, c], true) else {
            return self.const1();
        };
        match n {
            0 => self.const0(),
            1 => live[0],
            2 => self.or2(live[0], live[1]),
            _ => {
                if live[0] == live[1] {
                    return self.or2(live[0], live[2]);
                }
                if live[1] == live[2] || live[0] == live[2] {
                    return self.or2(live[0], live[1]);
                }
                if self.complementary(live[0], live[1])
                    || self.complementary(live[1], live[2])
                    || self.complementary(live[0], live[2])
                {
                    return self.const1();
                }
                self.push_canonical(GateKind::Or3, &mut [live[0], live[1], live[2]])
            }
        }
    }

    fn nand3(&mut self, a: u32, b: u32, c: u32) -> u32 {
        let and = self.and3(a, b, c);
        if let FoldNode::Gate { kind, ins } = self.node(and) {
            if kind == GateKind::And3 {
                return self.push_canonical(GateKind::Nand3, &mut [ins[0], ins[1], ins[2]]);
            }
            if kind == GateKind::And2 {
                return self.push_canonical(GateKind::Nand2, &mut [ins[0], ins[1]]);
            }
        }
        self.not(and)
    }

    fn nor3(&mut self, a: u32, b: u32, c: u32) -> u32 {
        let or = self.or3(a, b, c);
        if let FoldNode::Gate { kind, ins } = self.node(or) {
            if kind == GateKind::Or3 {
                return self.push_canonical(GateKind::Nor3, &mut [ins[0], ins[1], ins[2]]);
            }
            if kind == GateKind::Or2 {
                return self.push_canonical(GateKind::Nor2, &mut [ins[0], ins[1]]);
            }
        }
        self.not(or)
    }

    fn mux(&mut self, sel: u32, a: u32, b: u32) -> u32 {
        match self.is_const(sel) {
            Some(true) => return a,
            Some(false) => return b,
            None => {}
        }
        if a == b {
            return a;
        }
        match (self.is_const(a), self.is_const(b)) {
            (Some(true), Some(false)) => return sel,
            (Some(false), Some(true)) => return self.not(sel),
            (Some(true), None) => return self.or2(sel, b),
            (Some(false), None) => {
                let ns = self.not(sel);
                return self.and2(ns, b);
            }
            (None, Some(true)) => {
                let ns = self.not(sel);
                return self.or2(ns, a);
            }
            (None, Some(false)) => return self.and2(sel, a),
            _ => {}
        }
        if self.complementary(a, b) {
            return self.xnor2(sel, a);
        }
        self.push(GateKind::Mux2, &[sel, a, b])
    }

    /// [`opt::replay`]'s `emit`: dispatches a source gate kind onto the
    /// folding constructors (buffers are transparent).
    ///
    /// [`opt::replay`]: ../../pax_synth/opt/index.html
    fn emit(&mut self, kind: GateKind, ins: &[u32]) -> u32 {
        use GateKind::*;
        match kind {
            Const0 => self.const0(),
            Const1 => self.const1(),
            Buf => ins[0],
            Not => self.not(ins[0]),
            And2 => self.and2(ins[0], ins[1]),
            Nand2 => self.nand2(ins[0], ins[1]),
            Or2 => self.or2(ins[0], ins[1]),
            Nor2 => self.nor2(ins[0], ins[1]),
            Xor2 => self.xor2(ins[0], ins[1]),
            Xnor2 => self.xnor2(ins[0], ins[1]),
            And3 => self.and3(ins[0], ins[1], ins[2]),
            Or3 => self.or3(ins[0], ins[1], ins[2]),
            Nand3 => self.nand3(ins[0], ins[1], ins[2]),
            Nor3 => self.nor3(ins[0], ins[1], ins[2]),
            Mux2 => self.mux(ins[0], ins[1], ins[2]),
        }
    }

    /// Records the provenance of everything one `emit` produced. The
    /// image `img` streams source node `source`'s (substituted) value.
    /// Any *other* node created during the emit (`created_from` is the
    /// node count before it) that still lacks provenance is an
    /// AND3/OR3 companion freshly re-created inside the NAND3/NOR3
    /// folds — its stream is exactly the complement of the source's.
    /// First claim wins — a deduped image already carries an
    /// equivalent provenance.
    fn claim(&mut self, created_from: usize, img: u32, source: u32) {
        if self.prov_of(img) == PROV_NONE && !matches!(self.kind_of(img), Some(k) if k.is_free()) {
            self.set_prov(img, prov_pack(source, false));
        }
        for id in created_from as u32..self.len() as u32 {
            if self.prov_of(id) == PROV_NONE && !matches!(self.kind_of(id), Some(k) if k.is_free())
            {
                self.set_prov(id, prov_pack(source, true));
            }
        }
    }
}

/// One fold pass's output: the built nodes plus the source→image map
/// and the mapped output-port bits (flat, ports in declaration order).
struct Pass<'a> {
    b: FoldBuilder<'a>,
    outputs: Vec<u32>,
}

/// Mirror of `opt::replay`: every source node replayed through the
/// folding constructors, with `subst` nets (sorted by id) replaced by
/// constants first. A cursor over the sorted substitution replaces the
/// per-node map lookup — ids are visited in ascending order.
fn replay_pass(nl: &Netlist, subst: &[(NetId, bool)]) -> Pass<'static> {
    debug_assert!(subst.windows(2).all(|w| w[0].0 < w[1].0), "substitution must be sorted");
    let mut b = FoldBuilder::with_capacity(nl.len());
    let mut map: Vec<u32> = vec![u32::MAX; nl.len()];
    for (pi, p) in nl.input_ports().iter().enumerate() {
        for (bit, old) in p.bits.iter().enumerate() {
            map[old.index()] = b.input(pi as u16, bit as u16, old.index() as u32);
        }
    }
    let mut cursor = subst.iter().peekable();
    for (id, node) in nl.iter() {
        if let Some(&(_, v)) = cursor.next_if(|&&(net, _)| net == id) {
            map[id.index()] = b.constant(v);
            continue;
        }
        let Node::Gate(g) = node else { continue };
        let mut ins = [0u32; 3];
        for (slot, i) in ins.iter_mut().zip(g.inputs()) {
            *slot = map[i.index()];
        }
        let before = b.len();
        let img = b.emit(g.kind, &ins[..g.inputs().len()]);
        map[id.index()] = img;
        b.claim(before, img, id.index() as u32);
    }
    let outputs =
        nl.output_ports().iter().flat_map(|p| p.bits.iter().map(|n| map[n.index()])).collect();
    Pass { b, outputs }
}

/// Mirror of `opt::sweep` over a previous pass: re-emit the gates on a
/// path to an output port, in order, through a fresh fold builder.
fn sweep_pass(prev_b: &FoldBuilder<'_>, prev_outputs: &[u32]) -> Pass<'static> {
    // Liveness: transitive fanin of the output bits (gates only).
    let mut live = vec![false; prev_b.nodes.len()];
    let mut stack: Vec<u32> = prev_outputs.to_vec();
    while let Some(n) = stack.pop() {
        if std::mem::replace(&mut live[n as usize], true) {
            continue;
        }
        if let Some((_, ins)) = prev_b.nodes[n as usize].gate() {
            for &i in ins {
                if !live[i as usize] {
                    stack.push(i);
                }
            }
        }
    }

    let mut b = FoldBuilder::with_capacity(prev_b.nodes.len());
    b.sweep_consing = true;
    let mut map: Vec<u32> = vec![u32::MAX; prev_b.nodes.len()];
    for (id, node) in prev_b.nodes.iter().enumerate() {
        match *node {
            FoldNode::Input { port, bit } => {
                // Inputs are always rebuilt; they lead the node list in
                // port order, exactly like `rebuild_inputs`.
                map[id] = b.input(port, bit, id as u32);
            }
            FoldNode::Gate { kind, ins } => {
                if !live[id] {
                    continue;
                }
                let mut mapped = [0u32; 3];
                for (slot, &i) in mapped.iter_mut().zip(ins[..kind.arity()].iter()) {
                    *slot = map[i as usize];
                }
                let before = b.len();
                let img = b.emit(kind, &mapped[..kind.arity()]);
                map[id] = img;
                b.claim(before, img, id as u32);
            }
        }
    }
    let outputs = prev_outputs.iter().map(|&o| map[o as usize]).collect();
    Pass { b, outputs }
}

/// The folded-and-swept image of a netlist under a constant
/// substitution: node-for-node the structure `opt::apply_constants`
/// would build, without building it. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct FoldedCircuit {
    nodes: Vec<FoldNode>,
    /// Per-node provenance, packed like [`FoldBuilder`]'s.
    prov: Vec<u64>,
    outputs: Vec<u32>,
}

impl FoldedCircuit {
    /// Runs the two mirrored passes (constant-substituting replay, then
    /// dead-cone sweep) of `opt::apply_constants` on `nl`.
    pub fn apply(nl: &Netlist, subst: &BTreeMap<NetId, bool>) -> Self {
        let pairs: Vec<(NetId, bool)> = subst.iter().map(|(&n, &v)| (n, v)).collect();
        Self::apply_sorted(nl, &pairs)
    }

    /// [`FoldedCircuit::apply`] over an id-sorted substitution slice:
    /// the from-scratch fold [`FoldIndex::fold`] is pinned against.
    ///
    /// # Panics
    ///
    /// Debug builds assert the slice is strictly sorted by net id.
    pub fn apply_sorted(nl: &Netlist, subst: &[(NetId, bool)]) -> Self {
        let replayed = replay_pass(nl, subst);
        let swept = sweep_pass(&replayed.b, &replayed.outputs);
        // Compose the sweep's provenance (in replay ids) with the
        // replay's (in source ids).
        let prov = swept
            .b
            .prov
            .iter()
            .map(|&p| match prov_unpack(p) {
                Some(sw) => match replayed.b.prov[sw.source.index()] {
                    PROV_NONE => PROV_NONE,
                    r => r ^ u64::from(sw.inverted),
                },
                None => PROV_NONE,
            })
            .collect();
        FoldedCircuit { nodes: swept.b.nodes, prov, outputs: swept.outputs }
    }

    /// Number of folded nodes (inputs + surviving gates).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the fold produced no nodes at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The folded nodes, in the exact order `opt::apply_constants`
    /// would construct them.
    pub fn nodes(&self) -> &[FoldNode] {
        &self.nodes
    }

    /// Value provenance of folded node `i` (`None` for constants).
    pub fn provenance(&self, i: usize) -> Option<Provenance> {
        prov_unpack(self.prov[i])
    }

    /// The folded output-port bits, flat in declaration order (widths
    /// follow the source netlist's).
    pub fn output_bits(&self) -> &[u32] {
        &self.outputs
    }

    /// Mirror of [`Netlist::gate_count`]: surviving area-occupying
    /// gates (constants and inputs excluded).
    pub fn gate_count(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n.gate(), Some((k, _)) if !k.is_free())).count()
    }

    /// Reconstructs the folded structure as a real [`Netlist`] (ports
    /// named after `source`'s). This is the differential-test hook: the
    /// result must equal `opt::apply_constants(source, subst)` exactly.
    pub fn materialize(&self, source: &Netlist) -> Netlist {
        let nodes: Vec<Node> = self
            .nodes
            .iter()
            .map(|n| match *n {
                FoldNode::Input { port, bit } => Node::Input { port, bit },
                FoldNode::Gate { kind, ins } => {
                    let ids: Vec<NetId> = ins[..kind.arity()]
                        .iter()
                        .map(|&i| NetId::from_index(i as usize))
                        .collect();
                    Node::Gate(Gate::new(kind, &ids))
                }
            })
            .collect();
        let mut input_ports: Vec<Port> = source
            .input_ports()
            .iter()
            .map(|p| Port { name: p.name.clone(), bits: Vec::with_capacity(p.width()) })
            .collect();
        for (i, n) in self.nodes.iter().enumerate() {
            if let FoldNode::Input { port, .. } = n {
                input_ports[*port as usize].bits.push(NetId::from_index(i));
            }
        }
        let mut output_ports = Vec::with_capacity(source.output_ports().len());
        let mut cursor = self.outputs.iter();
        for p in source.output_ports() {
            let bits: Vec<NetId> =
                cursor.by_ref().take(p.width()).map(|&o| NetId::from_index(o as usize)).collect();
            output_ports.push(Port { name: p.name.clone(), bits });
        }
        Netlist { name: source.name().to_owned(), nodes, input_ports, output_ports }
    }
}

/// The AND3/OR3 a NAND3/NOR3 fold looks up first (its *companion*).
fn companion_kind(kind: GateKind) -> Option<GateKind> {
    match kind {
        GateKind::Nand3 => Some(GateKind::And3),
        GateKind::Nor3 => Some(GateKind::Or3),
        _ => None,
    }
}

/// What [`FoldIndex::fold`] reads of one canonical base circuit, built
/// once per base: its replay (nodes, provenance and signature map),
/// its consumer table and its NAND3/NOR3 companions.
#[derive(Debug)]
pub struct FoldIndex {
    nodes: Vec<FoldNode>,
    /// Replay provenance, packed like [`FoldBuilder`]'s.
    prov: Vec<u64>,
    sigs: SigMap,
    fanout: Fanout,
    /// For each NAND3/NOR3, its AND3/OR3 companion; for each such
    /// companion, its NAND3/NOR3; `u32::MAX` elsewhere.
    companion: Vec<u32>,
    /// The input nodes, which a canonical base lists first.
    n_inputs: usize,
    outputs: Vec<u32>,
}

impl FoldIndex {
    /// Indexes the canonical base `nl`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotCanonical`] naming the first node
    /// that replaying `nl` without a substitution does not reproduce.
    /// Every `opt::optimize` output is canonical; buffers and duplicate
    /// structure are not.
    pub fn new(nl: &Netlist) -> Result<Self, NetlistError> {
        let Pass { b, outputs } = replay_pass(nl, &[]);
        let differs = (0..nl.len())
            .find(|&i| b.nodes.get(i) != Some(&FoldNode::of(&nl.nodes()[i])))
            .or_else(|| (b.nodes.len() != nl.len()).then(|| nl.len().saturating_sub(1)))
            .or_else(|| {
                let bits = nl.output_ports().iter().flat_map(|p| p.bits.iter());
                bits.zip(&outputs).find(|(n, &o)| n.index() != o as usize).map(|(n, _)| n.index())
            });
        if let Some(i) = differs {
            return Err(NetlistError::NotCanonical { net: NetId::from_index(i) });
        }
        let mut companion = vec![u32::MAX; b.nodes.len()];
        for (v, node) in b.nodes.iter().enumerate() {
            let FoldNode::Gate { kind, ins } = *node else { continue };
            if let Some(c) = companion_kind(kind).and_then(|dual| b.dedup.get(sig(dual, ins))) {
                companion[v] = c;
                companion[c as usize] = v as u32;
            }
        }
        let n_inputs = b.nodes.iter().take_while(|n| matches!(n, FoldNode::Input { .. })).count();
        Ok(Self {
            nodes: b.nodes,
            prov: b.prov,
            sigs: b.dedup,
            fanout: Fanout::build(nl),
            companion,
            n_inputs,
            outputs,
        })
    }

    /// The base's consumer table.
    pub fn fanout(&self) -> &Fanout {
        &self.fanout
    }

    /// Folds the base under the id-sorted substitution `mask` by
    /// re-folding only the nodes it changes (see the module docs). The
    /// result is node for node, provenance included, the circuit
    /// [`FoldedCircuit::apply_sorted`]`(base, mask)` builds; it lives
    /// in `scratch` until the scratch's next fold.
    ///
    /// # Panics
    ///
    /// Panics if a masked net lies outside the base. Debug builds
    /// assert the mask is strictly sorted by net id.
    pub fn fold<'s>(
        &self,
        mask: &[(NetId, bool)],
        scratch: &'s mut FoldScratch,
    ) -> &'s FoldedCircuit {
        debug_assert!(mask.windows(2).all(|w| w[0].0 < w[1].0), "mask must be sorted");
        self.replay(mask, scratch);
        self.sweep(scratch);
        &scratch.out
    }

    /// The replay: re-folds the pending nodes in id order against the
    /// base's signature map. Leaves per-base-node marks and images, and
    /// the created nodes with the slot that created each, in `scratch`.
    fn replay(&self, mask: &[(NetId, bool)], scratch: &mut FoldScratch) {
        let n = self.nodes.len();
        let mut marks = std::mem::take(&mut scratch.marks);
        marks.clear();
        marks.resize(n, 0);
        for &(net, _) in mask {
            marks[net.index()] |= PENDING;
        }
        let mut b = FoldBuilder {
            base: &self.nodes,
            base_prov: &self.prov,
            nodes: std::mem::take(&mut scratch.nodes),
            prov: std::mem::take(&mut scratch.prov),
            dedup: std::mem::take(&mut scratch.dedup),
            const0: None,
            const1: None,
            sweep_consing: false,
            base_sigs: Some(&self.sigs),
            marks,
            born: std::mem::take(&mut scratch.born),
            slot: 0,
        };
        b.nodes.clear();
        b.prov.clear();
        b.dedup.clear();
        b.born.clear();
        let img = &mut scratch.img;
        img.resize(n, 0);
        let mut refolded = 0;
        let mut forced = mask.iter().peekable();
        for s in mask.first().map_or(n, |&(net, _)| net.index())..n {
            if b.marks[s] & PENDING == 0 {
                continue;
            }
            b.slot = s as u32;
            refolded += 1;
            let node = self.nodes[s];
            let image = if let Some(&(_, v)) = forced.next_if(|&&(net, _)| net.index() == s) {
                b.constant(v)
            } else {
                let FoldNode::Gate { kind, ins } = node else {
                    unreachable!("only a mask marks an input")
                };
                let mut mapped = [0u32; 3];
                for (m, &i) in mapped.iter_mut().zip(&ins[..kind.arity()]) {
                    *m = if b.marks[i as usize] & CHANGED != 0 { img[i as usize] } else { i };
                }
                let before = b.len();
                let image = b.emit(kind, &mapped[..kind.arity()]);
                b.claim(before, image, s as u32);
                image
            };
            if image != s as u32 {
                b.marks[s] |= CHANGED;
                img[s] = image;
                for &c in self.fanout.of(NetId::from_index(s)) {
                    b.marks[c.index()] |= PENDING;
                }
                // A changed AND3/OR3 companion re-marks its NAND3/NOR3.
                if matches!(node, FoldNode::Gate { kind: GateKind::And3 | GateKind::Or3, .. })
                    && self.companion[s] != u32::MAX
                {
                    b.marks[self.companion[s] as usize] |= PENDING;
                }
            }
        }
        let FoldBuilder { nodes, prov, dedup, marks, born, .. } = b;
        (scratch.nodes, scratch.prov, scratch.dedup, scratch.marks, scratch.born) =
            (nodes, prov, dedup, marks, born);
        scratch.refolded = refolded;
    }

    /// The sweep over the replay in `scratch`. Replay order lists, per
    /// base slot, the nodes that slot created, then the slot's own base
    /// node if it replayed to itself. Liveness is one reverse pass over
    /// that order; one forward pass then renumbers the live nodes,
    /// re-sorts commutative operands and re-creates a dead AND3/OR3
    /// companion right before each live NAND3/NOR3. Each node keeps its
    /// replay provenance; a re-created companion streams the
    /// complement of its NAND3/NOR3.
    fn sweep(&self, scratch: &mut FoldScratch) {
        let n = self.nodes.len();
        let FoldScratch { nodes, prov, dedup, born, marks, img, live, remap, out, .. } = scratch;
        let node =
            |v: u32| if (v as usize) < n { self.nodes[v as usize] } else { nodes[v as usize - n] };
        let image = |v: u32| if marks[v as usize] & CHANGED != 0 { img[v as usize] } else { v };
        // A base gate is in the replay unless its image changed.
        let kept = |s: usize| marks[s] & CHANGED == 0;

        live.clear();
        live.resize(n + nodes.len(), false);
        out.outputs.clear();
        for &o in &self.outputs {
            let v = image(o);
            live[v as usize] = true;
            out.outputs.push(v);
        }
        let mark_operands = |live: &mut [bool], v: u32| {
            if let FoldNode::Gate { kind, ins } = node(v) {
                for &i in &ins[..kind.arity()] {
                    live[i as usize] = true;
                }
            }
        };
        let mut k = nodes.len();
        for s in (0..n).rev() {
            if kept(s) && live[s] {
                mark_operands(live, s as u32);
            }
            while k > 0 && born[k - 1] == s as u32 {
                k -= 1;
                if live[n + k] {
                    mark_operands(live, (n + k) as u32);
                }
            }
        }

        // Whether the replay's AND3/OR3 companion of NAND3/NOR3 `v` is
        // live: the base companion when unchanged, else the node holding
        // its signature.
        let companion_live = |v: u32, dual: GateKind, ins: [u32; 3]| {
            let c = self.companion.get(v as usize).copied().unwrap_or(u32::MAX);
            let c = if c != u32::MAX && kept(c as usize) {
                Some(c)
            } else {
                let key = sig(dual, ins);
                dedup.get(key).or_else(|| self.sigs.get(key).filter(|&j| kept(j as usize)))
            };
            c.is_some_and(|c| live[c as usize])
        };
        remap.clear();
        remap.resize(n + nodes.len(), u32::MAX);
        out.nodes.clear();
        out.prov.clear();
        out.nodes.reserve(n + nodes.len());
        out.prov.reserve(n + nodes.len());
        out.nodes.extend_from_slice(&self.nodes[..self.n_inputs]);
        out.prov.extend_from_slice(&self.prov[..self.n_inputs]);
        for (i, r) in remap[..self.n_inputs].iter_mut().enumerate() {
            *r = i as u32;
        }
        // Renumbering keeps the order of base nodes, whose operands are
        // base nodes, so only created nodes re-sort theirs.
        let mut emit = |v: u32, node: FoldNode, p: u64, created: bool| {
            let FoldNode::Gate { kind, ins } = node else { unreachable!("inputs lead") };
            let arity = kind.arity();
            let mut mapped = [0u32; 3];
            for (j, (m, &i)) in mapped.iter_mut().zip(&ins).enumerate() {
                if j < arity {
                    *m = remap[i as usize];
                }
            }
            if created && kind.is_commutative() {
                mapped[..arity].sort_unstable();
            }
            if let Some(dual) = companion_kind(kind) {
                if !companion_live(v, dual, ins) {
                    out.nodes.push(FoldNode::Gate { kind: dual, ins: mapped });
                    out.prov.push(if p == PROV_NONE { p } else { p ^ 1 });
                }
            }
            remap[v as usize] = out.nodes.len() as u32;
            out.nodes.push(FoldNode::Gate { kind, ins: mapped });
            out.prov.push(p);
        };
        let mut k = 0;
        for s in 0..n {
            while k < nodes.len() && born[k] == s as u32 {
                let v = n + k;
                if live[v] {
                    emit(v as u32, nodes[k], prov[k], true);
                }
                k += 1;
            }
            if s >= self.n_inputs && kept(s) && live[s] {
                emit(s as u32, self.nodes[s], self.prov[s], false);
            }
        }
        for o in &mut out.outputs {
            *o = remap[*o as usize];
        }
    }
}

/// Caller-owned buffers of [`FoldIndex::fold`], reusable across folds
/// and bases (one per worker). It also holds the last fold's result.
#[derive(Debug, Default)]
pub struct FoldScratch {
    /// The nodes the last replay created, their provenance and
    /// signatures.
    nodes: Vec<FoldNode>,
    prov: Vec<u64>,
    dedup: SigMap,
    /// The base slot whose replay created each of `nodes`.
    born: Vec<u32>,
    /// Per base node: [`PENDING`] and [`CHANGED`] marks.
    marks: Vec<u8>,
    /// Per changed base node: its image.
    img: Vec<u32>,
    /// Liveness and final ids, over the base nodes, then `nodes`.
    live: Vec<bool>,
    remap: Vec<u32>,
    refolded: usize,
    out: FoldedCircuit,
}

impl FoldScratch {
    /// How many base nodes the last fold re-folded.
    pub fn refolded(&self) -> usize {
        self.refolded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{eval, validate, NetlistBuilder};

    fn sample() -> (Netlist, Vec<NetId>) {
        let mut b = NetlistBuilder::new("s");
        let x = b.input_port("x", 4);
        let a = b.and2(x[0], x[1]);
        let o = b.or3(a, x[2], x[3]);
        let n = b.nand3(a, o, x[0]);
        let m = b.mux(x[3], a, n);
        let y = b.xor2(m, o);
        b.output_port("y", vec![y, n].into());
        (b.finish(), vec![a, o, n, m, y])
    }

    /// Scalar reference: every source net's value under a forced
    /// substitution.
    fn forced_values(nl: &Netlist, subst: &BTreeMap<NetId, bool>, sample: u64) -> Vec<bool> {
        let mut vals = vec![false; nl.len()];
        for (id, node) in nl.iter() {
            let v = match node {
                Node::Input { port, bit } => {
                    let base: usize =
                        nl.input_ports()[..*port as usize].iter().map(Port::width).sum();
                    sample >> (base + *bit as usize) & 1 == 1
                }
                Node::Gate(g) => {
                    let ins: Vec<bool> = g.inputs().iter().map(|i| vals[i.index()]).collect();
                    g.kind.eval_bool(&ins)
                }
            };
            vals[id.index()] = subst.get(&id).copied().unwrap_or(v);
        }
        vals
    }

    #[test]
    fn empty_substitution_reproduces_optimize_shape() {
        let (nl, _) = sample();
        let folded = FoldedCircuit::apply(&nl, &BTreeMap::new());
        let m = folded.materialize(&nl);
        validate::assert_valid(&m);
        assert_eq!(m.input_ports(), nl.input_ports());
        assert_eq!(m.output_ports().len(), nl.output_ports().len());
        // Function preserved on every input pattern.
        for p in 0u64..16 {
            assert_eq!(
                eval::eval_ports(&m, &[("x", p)]),
                eval::eval_ports(&nl, &[("x", p)]),
                "pattern {p:04b}"
            );
        }
    }

    #[test]
    fn substitution_forces_constants_and_sweeps_cones() {
        let (nl, nets) = sample();
        let mut subst = BTreeMap::new();
        subst.insert(nets[0], true); // the AND2 goes to constant 1
        let folded = FoldedCircuit::apply(&nl, &subst);
        let m = folded.materialize(&nl);
        validate::assert_valid(&m);
        assert!(m.gate_count() < nl.gate_count());
        assert_eq!(folded.gate_count(), m.gate_count());
        for p in 0u64..16 {
            let reference = forced_values(&nl, &subst, p);
            let got = eval::eval_ports(&m, &[("x", p)]);
            let want_y =
                (reference[nets[4].index()] as u64) | (reference[nets[2].index()] as u64) << 1;
            assert_eq!(got["y"], want_y, "pattern {p:04b}");
        }
    }

    #[test]
    fn provenance_streams_match_forced_source_values() {
        let (nl, nets) = sample();
        for (pruned, value) in [(nets[0], false), (nets[1], true), (nets[3], false)] {
            let mut subst = BTreeMap::new();
            subst.insert(pruned, value);
            let folded = FoldedCircuit::apply(&nl, &subst);
            let m = folded.materialize(&nl);
            for p in 0u64..16 {
                let reference = forced_values(&nl, &subst, p);
                // Evaluate every folded net on this pattern.
                let mut vals = vec![false; m.len()];
                for (id, node) in m.iter() {
                    vals[id.index()] = match node {
                        Node::Input { port, bit } => {
                            let base: usize =
                                m.input_ports()[..*port as usize].iter().map(Port::width).sum();
                            p >> (base + *bit as usize) & 1 == 1
                        }
                        Node::Gate(g) => {
                            let ins: Vec<bool> =
                                g.inputs().iter().map(|i| vals[i.index()]).collect();
                            g.kind.eval_bool(&ins)
                        }
                    };
                }
                for (i, &got) in vals.iter().enumerate() {
                    let Some(prov) = folded.provenance(i) else {
                        assert!(
                            matches!(folded.nodes()[i].gate(), Some((k, _)) if k.is_free()),
                            "only constants may lack provenance (node {i})"
                        );
                        continue;
                    };
                    let want = reference[prov.source.index()] ^ prov.inverted;
                    assert_eq!(got, want, "node {i} pattern {p:04b} prov {prov:?}");
                }
            }
        }
    }

    /// Node-for-node equality of two [`FoldedCircuit`]s, provenance
    /// included.
    fn assert_folds_equal(a: &FoldedCircuit, b: &FoldedCircuit) {
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(a.output_bits(), b.output_bits());
        for i in 0..a.len() {
            assert_eq!(a.provenance(i), b.provenance(i), "provenance of node {i}");
        }
    }

    /// Folds every mask of `masks` through one reused scratch and pins
    /// each against the from-scratch fold.
    fn assert_cone_folds(nl: &Netlist, masks: &[Vec<(NetId, bool)>]) {
        let index = FoldIndex::new(nl).expect("canonical base");
        let mut scratch = FoldScratch::default();
        for mask in masks {
            let mut sorted = mask.clone();
            sorted.sort_unstable_by_key(|&(n, _)| n);
            let fresh = FoldedCircuit::apply_sorted(nl, &sorted);
            assert_folds_equal(index.fold(&sorted, &mut scratch), &fresh);
        }
    }

    #[test]
    fn refold_chain_matches_fresh_folds() {
        let (nl, nets) = sample();
        // A chain walking the gate-set lattice with one reused scratch:
        // adds, removes and swaps of a few gates per step, the empty set,
        // and the same set twice in a row.
        let chain: Vec<Vec<(NetId, bool)>> = vec![
            vec![],
            vec![(nets[0], true)],
            vec![(nets[0], true), (nets[2], false)],
            vec![(nets[2], false)],
            vec![(nets[1], true), (nets[2], false)],
            vec![(nets[0], false), (nets[1], true), (nets[3], true)],
            vec![],
            vec![(nets[4], false)],
            vec![(nets[1], true)],
            vec![(nets[1], true)],
        ];
        assert_cone_folds(&nl, &chain);
    }

    #[test]
    fn refolder_reset_forces_full_fold() {
        // A scratch carries no fold state: a fold after a different mask
        // is the fold a fresh scratch gives, re-folded cone included.
        let (nl, nets) = sample();
        let index = FoldIndex::new(&nl).unwrap();
        let mask = [(nets[1], false)];
        let mut fresh_scratch = FoldScratch::default();
        let fresh = index.fold(&mask, &mut fresh_scratch).clone();
        let mut reused = FoldScratch::default();
        index.fold(&[(nets[0], true)], &mut reused);
        assert_folds_equal(index.fold(&mask, &mut reused), &fresh);
        assert_eq!(reused.refolded(), fresh_scratch.refolded());
        assert_folds_equal(&fresh, &FoldedCircuit::apply_sorted(&nl, &mask));
    }

    #[test]
    fn refold_identical_substitution_is_a_noop_resume() {
        // The same mask folded twice through one scratch re-folds the
        // same cone, not the whole base, and gives the same circuit.
        let (nl, nets) = sample();
        let index = FoldIndex::new(&nl).unwrap();
        let mask = [(nets[1], true)];
        let mut scratch = FoldScratch::default();
        let first = index.fold(&mask, &mut scratch).clone();
        let cone = scratch.refolded();
        assert!(cone > 0 && cone < nl.len(), "re-folded {cone} of {} nodes", nl.len());
        assert_folds_equal(index.fold(&mask, &mut scratch), &first);
        assert_eq!(scratch.refolded(), cone);
    }

    #[test]
    fn companion_re_mark_holds_on_every_mask() {
        // NAND3(a,b,c) keeps its dead AND3 companion; AND3(a,b,OR2(c,
        // AND2(q,a))) re-folds onto that companion's signature once the
        // AND2 goes to 0. Every mask of the five gates to {unmasked, 0,
        // 1}: 3^5 = 243 cases.
        let mut b = NetlistBuilder::new("companion");
        let x = b.input_port("x", 4);
        let (a, bb, c, q) = (x[0], x[1], x[2], x[3]);
        let n = b.nand3(a, bb, c);
        let t = b.and2(q, a);
        let o = b.or2(c, t);
        let y = b.and3(a, bb, o);
        b.output_port("y", vec![n, y].into());
        let nl = b.finish();
        assert_eq!(nl.len(), 9, "inputs, AND3 companion, NAND3, AND2, OR2, AND3");
        let gates: Vec<NetId> = (4..9).map(NetId::from_index).collect();
        let masks: Vec<Vec<(NetId, bool)>> = (0..243u32)
            .map(|code| {
                let mut digits = code;
                let mut mask = Vec::new();
                for &g in &gates {
                    match digits % 3 {
                        1 => mask.push((g, false)),
                        2 => mask.push((g, true)),
                        _ => {}
                    }
                    digits /= 3;
                }
                mask
            })
            .collect();
        assert_cone_folds(&nl, &masks);
    }

    #[test]
    fn refolded_node_merges_into_a_later_base_node() {
        // Forcing `k` to 0 turns OR2(x1, k) into x1, so u = AND2(x0, ·)
        // re-folds to AND2(x0, x1): the signature of the later base node
        // v, which then merges into the node u's replay created.
        let mut b = NetlistBuilder::new("merge");
        let x = b.input_port("x", 4);
        let k = b.and2(x[2], x[3]);
        let t = b.or2(x[1], k);
        let u = b.and2(x[0], t);
        let v = b.and2(x[0], x[1]);
        let w = b.xor2(v, x[3]);
        b.output_port("y", vec![u, w].into());
        let nl = b.finish();
        let index = FoldIndex::new(&nl).unwrap();
        let mut scratch = FoldScratch::default();
        let mask = [(k, false)];
        let fresh = FoldedCircuit::apply_sorted(&nl, &mask);
        assert_folds_equal(index.fold(&mask, &mut scratch), &fresh);
        // k, t, u, the merged v and its consumer w.
        assert_eq!(scratch.refolded(), 5);
        assert_cone_folds(&nl, &[vec![(k, false)], vec![(k, true)], vec![(t, false), (w, true)]]);
    }

    #[test]
    fn constant_created_ahead_of_the_base_constant() {
        // The base's constant-0 node comes after g; forcing g to 0
        // creates the replay's constant first, and the base constant
        // (an output bit) folds into it.
        let mut b = NetlistBuilder::new("k");
        let x = b.input_port("x", 3);
        let g = b.and2(x[0], x[1]);
        let k0 = b.const0();
        let h = b.or2(g, x[2]);
        b.output_port("y", vec![h, k0].into());
        let nl = b.finish();
        assert!(k0 > g);
        assert_cone_folds(&nl, &[vec![(g, false)], vec![(g, true)], vec![(g, false), (h, true)]]);
    }

    #[test]
    fn non_canonical_base_is_rejected() {
        // The replay drops buffers, so it cannot reproduce this base.
        let mut b = NetlistBuilder::new("buf");
        let x = b.input_port("x", 2);
        let a = b.and2(x[0], x[1]);
        let buffered = b.buf_cell(a);
        let y = b.xor2(buffered, x[0]);
        b.output_port("y", vec![y].into());
        let nl = b.finish();
        assert_eq!(FoldIndex::new(&nl).unwrap_err(), NetlistError::NotCanonical { net: buffered });
    }

    #[test]
    fn pruned_output_bit_maps_to_constant() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input_port("x", 2);
        let g = b.xor2(x[0], x[1]);
        b.output_port("y", vec![g].into());
        let nl = b.finish();
        let mut subst = BTreeMap::new();
        subst.insert(g, false);
        let folded = FoldedCircuit::apply(&nl, &subst);
        assert_eq!(folded.gate_count(), 0);
        let m = folded.materialize(&nl);
        assert_eq!(eval::eval_ports(&m, &[("x", 3)])["y"], 0);
    }
}
