//! The span solver of the decision pipeline: an **online echelon form**.
//!
//! The batch regimes of the ROADMAP north star decide many span questions
//! against the *same* generating set (Definition 29 vectors of a shared
//! view pool) with varying targets, and the one-shot pipeline usually sees
//! the target enter the span long before every generator has been
//! eliminated.  A monolithic `QMat::solve` per call throws both structures
//! away; an [`IncrementalBasis`] keeps them:
//!
//! * generators are **inserted one at a time**, each reduced against the
//!   rows already present (fully reduced / Gauss–Jordan invariant, so
//!   insertion order never degrades later reductions);
//! * every row carries its **coordinates** over the inserted generators,
//!   so span membership and the certificate coefficients come out of the
//!   same reduction — no second elimination;
//! * [`IncrementalBasis::solve_extend`] feeds generators lazily and stops
//!   as soon as the target's residual hits zero (**early exit**): span
//!   questions over a planted workload never eliminate the columns after
//!   the spanning prefix, and a session-cached basis re-eliminates
//!   *nothing* for the second and later targets.
//!
//! Everything is exact `Rat` arithmetic — no verification step is needed,
//! this *is* the exact computation.  Definition 29 vectors are component
//! multiplicities (small naturals), so no modular prescreen sits in front.

use crate::rat::Rat;
use crate::vector::QVec;
use cqdet_parallel::{Gas, Interrupt};

/// One reduced row of the echelon form.
struct EchelonRow {
    /// The pivot column: `vec[pivot] = 1`, and every other row (and every
    /// reduced residual) is zero there.
    pivot: usize,
    /// The row itself, fully reduced against all other rows.
    vec: QVec,
    /// `vec = Σ coords[i] · generatorᵢ` over the inserted generators
    /// (entries past the stored length are zero).
    coords: Vec<Rat>,
}

/// An online echelon form over ℚ with per-row generator coordinates.
pub struct IncrementalBasis {
    dim: usize,
    /// Number of generators inserted so far (including dependent ones).
    inserted: usize,
    rows: Vec<EchelonRow>,
}

/// `acc[..] += f · src[..]`, growing `acc` with zeros as needed (subtract
/// by passing `f.neg_ref()`).
fn axpy(acc: &mut Vec<Rat>, f: &Rat, src: &[Rat]) {
    if acc.len() < src.len() {
        acc.resize(src.len(), Rat::zero());
    }
    for (a, s) in acc.iter_mut().zip(src) {
        if !s.is_zero() {
            *a = a.add_mul_ref(f, s);
        }
    }
}

/// `vec -= f · src` componentwise, skipping zero source entries — the one
/// elimination inner loop every reduction in this module shares.
fn sub_scaled(vec: &mut QVec, f: &Rat, src: &QVec) {
    for (t, s) in vec.0.iter_mut().zip(src.0.iter()) {
        if !s.is_zero() {
            *t = t.sub_mul_ref(f, s);
        }
    }
}

/// Fuel for one row operation against a row of `width` entries whose
/// elimination factor is `f`: `width` steps of work, plus the factor's bit
/// size as the byte proxy for the coefficient growth it causes.
#[inline]
fn charge_row_op(gas: &mut Gas, f: &Rat, width: usize) -> Result<(), Interrupt> {
    gas.charge_bytes(f.bit_size() as u64 / 8);
    gas.steps(width as u64)
}

impl IncrementalBasis {
    /// An empty basis in ambient dimension `dim`.
    pub fn new(dim: usize) -> IncrementalBasis {
        IncrementalBasis {
            dim,
            inserted: 0,
            rows: Vec::new(),
        }
    }

    /// The ambient dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of generators inserted so far.
    pub fn len(&self) -> usize {
        self.inserted
    }

    /// Whether no generator has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.inserted == 0
    }

    /// The rank of the inserted generators.
    pub fn rank(&self) -> usize {
        self.rows.len()
    }

    /// Bytes of heap storage owned by this basis: every row's vector and
    /// coordinate buffers, limb storage included.  Feeds the byte-accurate
    /// cost accounting of the governed span cache — echelon rows over
    /// bigint rationals are by far its heaviest entries.
    pub fn heap_bytes(&self) -> usize {
        self.rows
            .iter()
            .map(|row| {
                row.vec.heap_bytes()
                    + row.coords.capacity() * std::mem::size_of::<Rat>()
                    + row.coords.iter().map(Rat::heap_bytes).sum::<usize>()
            })
            .sum::<usize>()
            + self.rows.capacity() * std::mem::size_of::<EchelonRow>()
    }

    /// Export the reduced rows as `(pivot, vec, coords)` triples (cloned),
    /// for the warm-start snapshot.  The inverse of
    /// [`IncrementalBasis::from_parts`].
    pub fn export_rows(&self) -> Vec<(usize, QVec, Vec<Rat>)> {
        self.rows
            .iter()
            .map(|row| (row.pivot, row.vec.clone(), row.coords.clone()))
            .collect()
    }

    /// Rebuild a basis from snapshot parts, validating every structural
    /// invariant the reduction algorithms rely on; returns `None` on any
    /// violation (the snapshot loader then discards the entry and cold
    /// starts that key).  Checked: distinct in-range pivots, row dimension,
    /// unit pivot entries with zeros at every *other* row's pivot column
    /// (the Gauss–Jordan full-reduction invariant), rank and coordinate
    /// lengths bounded by `inserted`.
    pub fn from_parts(
        dim: usize,
        inserted: usize,
        rows: Vec<(usize, QVec, Vec<Rat>)>,
    ) -> Option<IncrementalBasis> {
        if rows.len() > inserted {
            return None;
        }
        let mut seen = vec![false; dim];
        for (pivot, vec, coords) in &rows {
            if *pivot >= dim || seen[*pivot] || vec.dim() != dim || coords.len() > inserted {
                return None;
            }
            seen[*pivot] = true;
        }
        for (pivot, vec, _) in &rows {
            if !vec.0[*pivot].is_one() {
                return None;
            }
            for (other_pivot, _, _) in &rows {
                if other_pivot != pivot && !vec.0[*other_pivot].is_zero() {
                    return None;
                }
            }
        }
        Some(IncrementalBasis {
            dim,
            inserted,
            rows: rows
                .into_iter()
                .map(|(pivot, vec, coords)| EchelonRow { pivot, vec, coords })
                .collect(),
        })
    }

    /// Insert one generator; returns `true` when it enlarged the span.
    pub fn insert(&mut self, v: &QVec) -> bool {
        match self.insert_indexed(v, &mut Gas::unlimited()) {
            Ok(idx) => idx.is_some(),
            Err(stop) => unreachable!("unlimited gas interrupted: {stop}"),
        }
    }

    /// [`IncrementalBasis::insert`] returning the new row's index, metered:
    /// every row operation charges the [`Gas`] handle, so an exhausted
    /// budget or expired deadline stops the elimination mid-insert.  On
    /// `Err` the basis is *consistent*: either untouched (interrupt during
    /// the initial reduction) or with the insert fully completed (interrupt
    /// during the Jordan restore — the bounded tail is finished unmetered),
    /// so a session-cached basis stays usable after an aborted request.
    fn insert_indexed(&mut self, v: &QVec, gas: &mut Gas) -> Result<Option<usize>, Interrupt> {
        assert_eq!(v.dim(), self.dim, "generator dimension mismatch");
        let mut vec = v.clone();
        let mut coords = vec![Rat::zero(); self.inserted + 1];
        coords[self.inserted] = Rat::one();
        for row in &self.rows {
            let f = vec.0[row.pivot].clone();
            if f.is_zero() {
                continue;
            }
            charge_row_op(gas, &f, self.dim + row.coords.len())?;
            sub_scaled(&mut vec, &f, &row.vec);
            axpy(&mut coords, &f.neg_ref(), &row.coords);
        }
        self.inserted += 1;
        // Pivot: the non-zero entry of minimal bit size, so the Jordan
        // updates below multiply by the smallest numbers available.
        let Some(pivot) = (0..self.dim)
            .filter(|&j| !vec.0[j].is_zero())
            .min_by_key(|&j| vec.0[j].bit_size())
        else {
            return Ok(None);
        };
        let inv = vec.0[pivot].recip();
        for t in vec.0.iter_mut() {
            if !t.is_zero() {
                *t = t.mul_ref(&inv);
            }
        }
        for c in coords.iter_mut() {
            if !c.is_zero() {
                *c = c.mul_ref(&inv);
            }
        }
        // Restore the full-reduction invariant on the existing rows.  Fuel
        // is pre-charged per row *before* mutating it: once a row operation
        // starts it always completes, keeping the echelon invariant intact
        // even when the interrupt lands mid-restore…
        let mut restored = 0usize;
        let mut interrupted = None;
        for row in &mut self.rows {
            let f = row.vec.0[pivot].clone();
            if f.is_zero() {
                restored += 1;
                continue;
            }
            if let Err(stop) = charge_row_op(gas, &f, self.dim + coords.len()) {
                interrupted = Some(stop);
                break;
            }
            sub_scaled(&mut row.vec, &f, &vec);
            axpy(&mut row.coords, &f.neg_ref(), &coords);
            restored += 1;
        }
        if let Some(stop) = interrupted {
            // …and the rows not yet reduced against the new pivot are
            // finished unmetered (bounded tail work), because a half-restored
            // basis would silently corrupt every later answer.
            for row in self.rows.iter_mut().skip(restored) {
                let f = row.vec.0[pivot].clone();
                if f.is_zero() {
                    continue;
                }
                sub_scaled(&mut row.vec, &f, &vec);
                axpy(&mut row.coords, &f.neg_ref(), &coords);
            }
            self.rows.push(EchelonRow { pivot, vec, coords });
            return Err(stop);
        }
        self.rows.push(EchelonRow { pivot, vec, coords });
        Ok(Some(self.rows.len() - 1))
    }

    /// Reduce `target` against the current rows: returns the residual and
    /// coordinates with `target = Σ coordsᵢ·generatorᵢ + residual`.
    fn reduce(&self, target: &QVec, gas: &mut Gas) -> Result<(QVec, Vec<Rat>), Interrupt> {
        assert_eq!(target.dim(), self.dim, "target dimension mismatch");
        let mut residual = target.clone();
        let mut coords = vec![Rat::zero(); self.inserted];
        for row in &self.rows {
            let f = residual.0[row.pivot].clone();
            if f.is_zero() {
                continue;
            }
            charge_row_op(gas, &f, self.dim + row.coords.len())?;
            sub_scaled(&mut residual, &f, &row.vec);
            axpy(&mut coords, &f, &row.coords);
        }
        Ok((residual, coords))
    }

    /// Whether `target` lies in the span of the inserted generators.
    pub fn contains(&self, target: &QVec) -> bool {
        match self.reduce(target, &mut Gas::unlimited()) {
            Ok((residual, _)) => residual.is_zero(),
            Err(stop) => unreachable!("unlimited gas interrupted: {stop}"),
        }
    }

    /// Coefficients over the inserted generators when `target` is in their
    /// span (`target = Σ αᵢ·generatorᵢ`, `α` of length [`Self::len`]).
    pub fn solve(&self, target: &QVec) -> Option<QVec> {
        let (residual, mut coords) = match self.reduce(target, &mut Gas::unlimited()) {
            Ok(r) => r,
            Err(stop) => unreachable!("unlimited gas interrupted: {stop}"),
        };
        if !residual.is_zero() {
            return None;
        }
        coords.resize(self.inserted, Rat::zero());
        Some(QVec(coords))
    }

    /// [`Self::solve`] with lazy insertion: reduce `target` against the
    /// current rows, and while the residual is non-zero keep inserting
    /// generators from `feed` (in order), re-reducing the residual by each
    /// newly created row.  Stops — **early exit** — the moment the target
    /// enters the span; generators never fed (and fed-but-dependent ones
    /// past the solution) simply get coefficient zero.
    ///
    /// Returns coefficients over *all* generators inserted so far (length
    /// [`Self::len`] after the call), or `None` when `feed` was exhausted
    /// with a non-zero residual.
    pub fn solve_extend(&mut self, target: &QVec, feed: &[QVec]) -> Option<QVec> {
        match self.solve_extend_gas(target, feed, &mut Gas::unlimited()) {
            Ok(answer) => answer,
            Err(stop) => unreachable!("unlimited gas interrupted: {stop}"),
        }
    }

    /// [`Self::solve_extend`] under fuel metering: every exact row operation
    /// (reductions, insertions, Jordan restores) charges the [`Gas`] handle.
    /// `Err` aborts with the basis left consistent — generators inserted
    /// before the interrupt stay inserted (see [`Self::insert`]'s metered
    /// contract), so a session cache survives an exhausted request.
    pub fn solve_extend_gas(
        &mut self,
        target: &QVec,
        feed: &[QVec],
        gas: &mut Gas,
    ) -> Result<Option<QVec>, Interrupt> {
        let (mut residual, mut coords) = self.reduce(target, gas)?;
        for v in feed {
            if residual.is_zero() {
                break;
            }
            if let Some(idx) = self.insert_indexed(v, gas)? {
                let row = &self.rows[idx];
                let f = residual.0[row.pivot].clone();
                if !f.is_zero() {
                    charge_row_op(gas, &f, self.dim + row.coords.len())?;
                    sub_scaled(&mut residual, &f, &row.vec);
                    axpy(&mut coords, &f, &row.coords);
                }
            }
        }
        // Kernel-exit flush: tail work below the flush granularity (and all
        // pending byte charges) must hit the shared ledger before returning.
        gas.flush()?;
        if !residual.is_zero() {
            return Ok(None);
        }
        coords.resize(self.inserted, Rat::zero());
        Ok(Some(QVec(coords)))
    }
}

// ---- checkpointed basis with row removal --------------------------------

/// How [`CheckpointedBasis::remove_slots_gas`] repaired the echelon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemovalKind {
    /// Every removed slot was a dependent insert (it never created a row),
    /// so the echelon was compacted in place — no elimination re-ran.
    Compacted,
    /// A removed slot was pivotal: the basis was restored from the last
    /// checkpoint at or before the first removed slot and the surviving
    /// generators after it were re-inserted.
    Replayed,
}

/// A saved echelon state: the reduced rows exactly as they stood after
/// `inserted` generators had been fed (the coordinate columns of later
/// generators are all zero at that point, so the export is self-contained).
struct Checkpoint {
    inserted: usize,
    rows: Vec<(usize, QVec, Vec<Rat>)>,
    /// Heap bytes of `rows`, measured when the rows last changed, so
    /// [`CheckpointedBasis::heap_bytes`] reads it instead of walking them.
    bytes: usize,
}

impl Checkpoint {
    fn new(inserted: usize, rows: Vec<(usize, QVec, Vec<Rat>)>) -> Checkpoint {
        let mut cp = Checkpoint {
            inserted,
            rows,
            bytes: 0,
        };
        cp.measure();
        cp
    }

    fn measure(&mut self) {
        self.bytes = self
            .rows
            .iter()
            .map(|(_, vec, coords)| {
                vec.heap_bytes() + coords.iter().map(Rat::heap_bytes).sum::<usize>()
            })
            .sum();
    }
}

/// An [`IncrementalBasis`] that additionally supports **generator removal**,
/// for long-lived mutable sessions whose view pool shrinks as well as grows.
///
/// The wrapper owns the authoritative generator sequence; the inner echelon
/// holds a fed prefix of it (`fed() ≤ len()`, lagging only after a fuel
/// interrupt) and is caught up at the start of every metered operation.
/// Removal has two regimes:
///
/// * a removed slot whose insert was **dependent** (created no row) is
///   provably indistinguishable from never having been inserted — no row
///   ever references its coordinate column (rows created earlier predate
///   the slot; rows created later start at zero there and only mix rows
///   that are zero there) — so all-dependent removals compact coordinate
///   columns in place without re-running any elimination;
/// * a **pivotal** slot's row is woven into every later reduction, so the
///   echelon is restored from the newest checkpoint at or before the first
///   removed slot (checkpoints are taken every `interval` fed generators)
///   and the surviving suffix is re-inserted, fuel-charged like any insert.
///
/// Checkpoint snapshots are plain row exports; their clone cost is bounded
/// bookkeeping accounted through [`CheckpointedBasis::heap_bytes`] (the
/// governed-cache byte ledger), while every elimination step stays on the
/// [`Gas`] ledger.
pub struct CheckpointedBasis {
    basis: IncrementalBasis,
    /// The authoritative generator sequence; `basis` has fed the prefix of
    /// length [`Self::fed`].
    generators: Vec<QVec>,
    /// Per *fed* slot: whether its insert created a row (independent).
    pivotal: Vec<bool>,
    /// Checkpoint cadence in fed generators (≥ 1).
    interval: usize,
    checkpoints: Vec<Checkpoint>,
}

impl CheckpointedBasis {
    /// An empty checkpointed basis in ambient dimension `dim`, snapshotting
    /// every `interval` fed generators (clamped to ≥ 1).
    pub fn new(dim: usize, interval: usize) -> CheckpointedBasis {
        CheckpointedBasis {
            basis: IncrementalBasis::new(dim),
            generators: Vec::new(),
            pivotal: Vec::new(),
            interval: interval.max(1),
            checkpoints: Vec::new(),
        }
    }

    /// The ambient dimension.
    pub fn dim(&self) -> usize {
        self.basis.dim
    }

    /// Number of generators in the authoritative sequence.
    pub fn len(&self) -> usize {
        self.generators.len()
    }

    /// Whether the generator sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.generators.is_empty()
    }

    /// Number of generators the echelon has fed so far (≤ [`Self::len`];
    /// strictly less only after an interrupt).
    pub fn fed(&self) -> usize {
        self.basis.len()
    }

    /// Rank of the fed generators.
    pub fn rank(&self) -> usize {
        self.basis.rank()
    }

    /// Number of checkpoints currently retained.
    pub fn checkpoints(&self) -> usize {
        self.checkpoints.len()
    }

    /// Heap bytes owned by the echelon, the generator copies and every
    /// checkpoint — the session cache weighs entries by this.  Checkpoints
    /// are immutable between snapshots, so each carries its own figure.
    pub fn heap_bytes(&self) -> usize {
        self.basis.heap_bytes()
            + self.generators.iter().map(QVec::heap_bytes).sum::<usize>()
            + self.checkpoints.iter().map(|cp| cp.bytes).sum::<usize>()
    }

    /// Append a generator to the authoritative sequence (cheap, unmetered);
    /// the echelon absorbs it on the next metered operation.
    pub fn push_generator(&mut self, v: QVec) {
        assert_eq!(v.dim(), self.dim(), "generator dimension mismatch");
        self.generators.push(v);
    }

    /// Snapshot the echelon when the fed count hits the cadence.
    fn maybe_checkpoint(&mut self) {
        let n = self.basis.len();
        if n > 0 && n.is_multiple_of(self.interval) {
            self.checkpoints
                .push(Checkpoint::new(n, self.basis.export_rows()));
        }
    }

    /// Feed every not-yet-fed generator into the echelon, fuel-charged.  On
    /// `Err` the state is consistent and *resumable*: generators fed before
    /// the interrupt stay fed, the rest are absorbed by the next call.
    pub fn catch_up_gas(&mut self, gas: &mut Gas) -> Result<(), Interrupt> {
        while self.basis.len() < self.generators.len() {
            let idx = self.basis.len();
            let v = self.generators[idx].clone();
            match self.basis.insert_indexed(&v, gas) {
                Ok(created) => {
                    self.pivotal.push(created.is_some());
                    self.maybe_checkpoint();
                }
                Err(stop) => {
                    // The metered insert either completed (a row was pushed
                    // — only pivotal inserts take the interrupted-restore
                    // path) or left the basis untouched.
                    if self.basis.len() > idx {
                        self.pivotal.push(true);
                        self.maybe_checkpoint();
                    }
                    return Err(stop);
                }
            }
        }
        Ok(())
    }

    /// Solve `target = Σ αᵢ·generatorᵢ` against the (caught-up) echelon:
    /// coefficients over the full generator sequence, or `None` when the
    /// target is outside their span.  Fuel-charged; an interrupt leaves the
    /// state consistent and resumable.
    pub fn solve_gas(&mut self, target: &QVec, gas: &mut Gas) -> Result<Option<QVec>, Interrupt> {
        self.catch_up_gas(gas)?;
        self.basis.solve_extend_gas(target, &[], gas)
    }

    /// Grow the ambient dimension to `new_dim`, zero-padding every stored
    /// vector (rows, generators, checkpoints).  Padding preserves every
    /// echelon invariant — new coordinates are zero everywhere — so this is
    /// exact, and it is how a session absorbs freshly appended basis
    /// components.
    pub fn grow_dim(&mut self, new_dim: usize) {
        assert!(new_dim >= self.dim(), "dimension can only grow");
        self.basis.dim = new_dim;
        for row in &mut self.basis.rows {
            row.vec.0.resize(new_dim, Rat::zero());
        }
        for g in &mut self.generators {
            g.0.resize(new_dim, Rat::zero());
        }
        for cp in &mut self.checkpoints {
            for (_, vec, _) in &mut cp.rows {
                vec.0.resize(new_dim, Rat::zero());
            }
            cp.measure();
        }
    }

    /// Drop the ambient coordinates `cols` (sorted ascending, distinct),
    /// which **must** be zero in every stored generator — the caller removes
    /// coordinates no surviving generator touches (a basis component only
    /// departed views contributed).  Rows are linear combinations of the
    /// generators, so they are zero there too; pivots above each dropped
    /// column shift down.  Checkpoints are discarded (their generator
    /// prefixes are equally zero there, but re-deriving them is not worth
    /// the bookkeeping — the next removal simply replays from further back).
    pub fn drop_columns(&mut self, cols: &[usize]) {
        if cols.is_empty() {
            return;
        }
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(self
            .generators
            .iter()
            .all(|g| cols.iter().all(|&c| g.0[c].is_zero())));
        let drop_from = |vec: &mut QVec| {
            for &c in cols.iter().rev() {
                vec.0.remove(c);
            }
        };
        for g in &mut self.generators {
            drop_from(g);
        }
        for row in &mut self.basis.rows {
            debug_assert!(cols.iter().all(|&c| row.vec.0[c].is_zero()));
            drop_from(&mut row.vec);
            row.pivot -= cols.iter().filter(|&&c| c < row.pivot).count();
        }
        self.basis.dim -= cols.len();
        self.checkpoints.clear();
    }

    /// Remove the generator slots `slots` (sorted ascending, distinct, all
    /// `< len()`), repairing the echelon.
    ///
    /// Fast path — every removed *fed* slot was dependent: compaction only
    /// (see the type docs for why this is exact).  Otherwise the echelon is
    /// restored from the newest checkpoint at or before the first removed
    /// slot and the surviving suffix is replayed, fuel-charged.  On `Err`
    /// the removal **has been applied** to the authoritative sequence and
    /// the state is consistent; the interrupted replay resumes on the next
    /// metered operation.
    pub fn remove_slots_gas(
        &mut self,
        slots: &[usize],
        gas: &mut Gas,
    ) -> Result<RemovalKind, Interrupt> {
        debug_assert!(slots.windows(2).all(|w| w[0] < w[1]));
        assert!(
            slots.iter().all(|&s| s < self.generators.len()),
            "slot out of range"
        );
        let fed = self.basis.len();
        // Unfed slots never touched the echelon: drop them from the pending
        // tail outright.
        for &s in slots.iter().rev() {
            if s >= fed {
                self.generators.remove(s);
            }
        }
        let fed_slots: Vec<usize> = slots.iter().copied().filter(|&s| s < fed).collect();
        if fed_slots.is_empty() {
            return Ok(RemovalKind::Compacted);
        }
        if fed_slots.iter().all(|&s| !self.pivotal[s]) {
            // Pre-charge the compaction sweep before mutating anything.
            gas.steps((self.basis.rows.len() * fed_slots.len() + fed_slots.len()) as u64)?;
            for &s in fed_slots.iter().rev() {
                self.generators.remove(s);
                self.pivotal.remove(s);
                for row in &mut self.basis.rows {
                    if s < row.coords.len() {
                        debug_assert!(row.coords[s].is_zero());
                        row.coords.remove(s);
                    }
                }
            }
            self.basis.inserted -= fed_slots.len();
            let min = fed_slots[0];
            self.checkpoints.retain(|cp| cp.inserted <= min);
            gas.flush()?;
            return Ok(RemovalKind::Compacted);
        }
        // Replay: restore the newest checkpoint not past the first removed
        // slot (its coordinate columns predate every removal), drop the
        // removed suffix slots from the sequence, and re-feed the rest.
        let first = fed_slots[0];
        let restored = self
            .checkpoints
            .iter()
            .filter(|cp| cp.inserted <= first)
            .max_by_key(|cp| cp.inserted)
            .and_then(|cp| IncrementalBasis::from_parts(self.dim(), cp.inserted, cp.rows.clone()))
            .unwrap_or_else(|| IncrementalBasis::new(self.dim()));
        self.basis = restored;
        self.pivotal.truncate(self.basis.len());
        self.checkpoints
            .retain(|cp| cp.inserted <= self.basis.len());
        for &s in fed_slots.iter().rev() {
            self.generators.remove(s);
        }
        self.catch_up_gas(gas)?;
        gas.flush()?;
        Ok(RemovalKind::Replayed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(vals: &[i64]) -> QVec {
        QVec::from_i64s(vals)
    }

    /// `Σ αᵢ·gᵢ` over the first `alpha.len()` generators.
    fn combine(generators: &[QVec], alpha: &QVec) -> QVec {
        let mut acc = QVec::zeros(generators[0].dim());
        for (a, g) in alpha.iter().zip(generators) {
            acc = &acc + &g.scale(a);
        }
        acc
    }

    #[test]
    fn rank_and_membership() {
        let mut b = IncrementalBasis::new(3);
        assert!(b.is_empty() && b.rank() == 0);
        assert!(b.insert(&v(&[1, 2, 3])));
        assert!(b.insert(&v(&[0, 1, 1])));
        assert!(!b.insert(&v(&[1, 3, 4])), "dependent generator");
        assert_eq!(b.rank(), 2);
        assert_eq!(b.len(), 3);
        assert!(b.contains(&v(&[2, 5, 7])));
        assert!(!b.contains(&v(&[0, 0, 1])));
    }

    #[test]
    fn solve_reconstructs_targets() {
        let generators = [v(&[2, 1, 3]), v(&[5, 2, 7]), v(&[1, 1, 2])];
        let mut b = IncrementalBasis::new(3);
        for g in &generators {
            b.insert(g);
        }
        let target = v(&[1, 1, 2]);
        let alpha = b.solve(&target).unwrap();
        assert_eq!(alpha.dim(), 3);
        assert_eq!(combine(&generators, &alpha), target);
        assert!(b.solve(&v(&[0, 0, 1])).is_none());
    }

    #[test]
    fn solve_extend_exits_early() {
        let generators = vec![v(&[1, 0, 0]), v(&[0, 1, 0]), v(&[0, 0, 1])];
        let mut b = IncrementalBasis::new(3);
        // Target spanned by the first generator alone: only one insert.
        let alpha = b.solve_extend(&v(&[3, 0, 0]), &generators).unwrap();
        assert_eq!(b.len(), 1, "early exit after the first generator");
        assert_eq!(alpha, v(&[3]));
        // A later target resumes feeding where the basis left off.
        let alpha = b
            .solve_extend(&v(&[1, 2, 0]), &generators[b.len()..])
            .unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(alpha, v(&[1, 2]));
        // Exhausting the feed without spanning reports None.
        assert!(b
            .solve_extend(&v(&[1, 1, 7]), &generators[b.len()..])
            .is_some());
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn solve_extend_reports_out_of_span() {
        let mut b = IncrementalBasis::new(2);
        assert!(b
            .solve_extend(&v(&[1, 1]), &[v(&[1, 0]), v(&[2, 0])])
            .is_none());
        assert_eq!(b.len(), 2, "every generator was tried");
        // The basis remains usable afterwards.
        assert!(b.solve_extend(&v(&[1, 1]), &[v(&[0, 3])]).is_some());
    }

    #[test]
    fn rational_coefficients_are_exact() {
        let generators = [
            QVec(vec![
                Rat::from_frac(1, 2),
                Rat::from_frac(1, 3),
                Rat::from_i64(1),
            ]),
            QVec(vec![
                Rat::from_frac(2, 5),
                Rat::from_i64(0),
                Rat::from_frac(7, 4),
            ]),
        ];
        let mut b = IncrementalBasis::new(3);
        for g in &generators {
            b.insert(g);
        }
        let target = combine(
            &generators,
            &QVec(vec![Rat::from_frac(-3, 7), Rat::from_frac(22, 9)]),
        );
        let alpha = b.solve(&target).unwrap();
        assert_eq!(combine(&generators, &alpha), target);
        assert_eq!(alpha[0], Rat::from_frac(-3, 7));
        assert_eq!(alpha[1], Rat::from_frac(22, 9));
    }

    #[test]
    fn fuelled_solve_extend_interrupts_and_leaves_basis_usable() {
        use cqdet_parallel::{Budget, CancelToken, Interrupt};
        let n = 24;
        let generators: Vec<QVec> = (0..n)
            .map(|i| {
                QVec(
                    (0..n)
                        .map(|j| Rat::from_i64(((i * j + i + 1) % 97) as i64 - 48))
                        .collect(),
                )
            })
            .collect();
        let target: QVec = {
            let mut acc = QVec::zeros(n);
            for g in &generators {
                acc = &acc + g;
            }
            acc
        };
        // A budget far below the elimination cost interrupts mid-solve…
        let tiny = Budget::with_limits(Some(8), None);
        let mut gas = Gas::new(&CancelToken::none(), &tiny, "span");
        let mut b = IncrementalBasis::new(n);
        let stop = b
            .solve_extend_gas(&target, &generators, &mut gas)
            .unwrap_err();
        assert!(matches!(stop, Interrupt::Exhausted(e) if e.what == "steps"));
        assert!(tiny.steps_spent() > 8, "work was charged");
        // …and the basis stays consistent: the unmetered retry still finds
        // the exact coefficients (all ones).
        let alpha = b
            .solve_extend(&target, &generators[b.len()..])
            .expect("target is the generator sum");
        let mut recombined = QVec::zeros(n);
        for (a, g) in alpha.iter().zip(&generators) {
            recombined = &recombined + &g.scale(a);
        }
        assert_eq!(recombined, target);
    }

    #[test]
    fn fuelled_byte_ledger_charges_bignum_growth() {
        use cqdet_bigint::Int;
        use cqdet_parallel::{Budget, CancelToken, Interrupt};
        // Large entries: the byte ledger (bit-size proxy) fires even though
        // the step ledger is unlimited.
        let big = Rat::from_int(Int::from_nat(cqdet_bigint::Nat::one().shl_bits(512)));
        let gens: Vec<QVec> = (0..6)
            .map(|i| {
                QVec(
                    (0..6)
                        .map(|j| big.mul_ref(&Rat::from_i64((i * 7 + j * 3 + 1) as i64)))
                        .collect(),
                )
            })
            .collect();
        let target = gens[0].clone();
        let budget = Budget::with_limits(None, Some(16));
        let mut gas = Gas::new(&CancelToken::none(), &budget, "span");
        let mut b = IncrementalBasis::new(6);
        for g in &gens {
            if b.insert_indexed(g, &mut gas).is_err() {
                break;
            }
        }
        let outcome = b.solve_extend_gas(&target, &[], &mut gas);
        let exhausted = matches!(
            outcome,
            Err(Interrupt::Exhausted(e)) if e.what == "bytes"
        ) || budget.bytes_spent() > 16;
        assert!(exhausted, "512-bit factors must charge the byte ledger");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let mut b = IncrementalBasis::new(3);
        b.insert(&v(&[1, 2]));
    }

    #[test]
    fn export_import_round_trip_preserves_solutions() {
        let generators = [v(&[2, 1, 3]), v(&[5, 2, 7]), v(&[1, 1, 2])];
        let mut b = IncrementalBasis::new(3);
        for g in &generators {
            b.insert(g);
        }
        let rebuilt = IncrementalBasis::from_parts(b.dim(), b.len(), b.export_rows())
            .expect("exported rows satisfy the invariants");
        assert_eq!(rebuilt.rank(), b.rank());
        let target = v(&[1, 1, 2]);
        assert_eq!(rebuilt.solve(&target), b.solve(&target));
        assert!(rebuilt.solve(&v(&[0, 0, 1])).is_none());
    }

    #[test]
    fn from_parts_rejects_invariant_violations() {
        let mut b = IncrementalBasis::new(3);
        b.insert(&v(&[1, 2, 3]));
        b.insert(&v(&[0, 1, 1]));
        let rows = b.export_rows();
        // Out-of-range pivot.
        let mut bad = b.export_rows();
        bad[0].0 = 7;
        assert!(IncrementalBasis::from_parts(3, 2, bad).is_none());
        // Duplicate pivots.
        let mut bad = b.export_rows();
        bad[1].0 = bad[0].0;
        assert!(IncrementalBasis::from_parts(3, 2, bad).is_none());
        // Non-unit pivot entry.
        let mut bad = b.export_rows();
        let p = bad[0].0;
        bad[0].1 .0[p] = Rat::from_i64(2);
        assert!(IncrementalBasis::from_parts(3, 2, bad).is_none());
        // Rank above inserted count.
        assert!(IncrementalBasis::from_parts(3, 1, rows).is_none());
    }

    /// Reference model for the checkpointed tests: a fresh scratch basis
    /// over `gens`, solving `target`.
    fn scratch_solve(gens: &[QVec], target: &QVec) -> Option<QVec> {
        let dim = target.dim();
        let mut b = IncrementalBasis::new(dim);
        for g in gens {
            b.insert(g);
        }
        b.solve(target)
    }

    #[test]
    fn checkpointed_matches_scratch_after_add_remove_churn() {
        // Deterministic pseudo-random generators with plenty of dependence.
        let dim = 6;
        let gen = |seed: usize| {
            QVec(
                (0..dim)
                    .map(|j| Rat::from_i64(((seed * 31 + j * 17 + 5) % 7) as i64 - 3))
                    .collect(),
            )
        };
        let mut cb = CheckpointedBasis::new(dim, 3);
        let mut model: Vec<QVec> = Vec::new();
        let mut gas = Gas::unlimited();
        for seed in 0..10 {
            cb.push_generator(gen(seed));
            model.push(gen(seed));
        }
        // Interleave removals (front, middle, back) with solves and adds.
        for (step, slot) in [(0usize, 0usize), (1, 3), (2, 5)] {
            cb.remove_slots_gas(&[slot], &mut gas).unwrap();
            model.remove(slot);
            cb.push_generator(gen(100 + step));
            model.push(gen(100 + step));
            for t in 0..4 {
                let target = gen(200 + step * 4 + t);
                assert_eq!(
                    cb.solve_gas(&target, &mut gas).unwrap(),
                    scratch_solve(&model, &target),
                    "step {step} target {t}"
                );
            }
        }
        assert_eq!(cb.len(), model.len());
    }

    #[test]
    fn dependent_slot_removal_compacts_without_replay() {
        let mut cb = CheckpointedBasis::new(3, 100);
        let mut gas = Gas::unlimited();
        cb.push_generator(v(&[1, 0, 0]));
        cb.push_generator(v(&[2, 0, 0])); // dependent on slot 0
        cb.push_generator(v(&[0, 1, 0]));
        cb.catch_up_gas(&mut gas).unwrap();
        assert_eq!(cb.rank(), 2);
        let kind = cb.remove_slots_gas(&[1], &mut gas).unwrap();
        assert_eq!(kind, RemovalKind::Compacted, "dependent slot: no replay");
        assert_eq!(cb.len(), 2);
        // Coefficients are over the compacted sequence.
        let alpha = cb.solve_gas(&v(&[3, 7, 0]), &mut gas).unwrap().unwrap();
        assert_eq!(alpha, v(&[3, 7]));
    }

    #[test]
    fn pivotal_removal_replays_from_checkpoint() {
        let mut cb = CheckpointedBasis::new(4, 2);
        let mut gas = Gas::unlimited();
        let gens = [
            v(&[1, 0, 0, 0]),
            v(&[1, 1, 0, 0]),
            v(&[0, 0, 1, 0]),
            v(&[0, 0, 1, 1]),
        ];
        for g in &gens {
            cb.push_generator(g.clone());
        }
        cb.catch_up_gas(&mut gas).unwrap();
        assert!(cb.checkpoints() >= 1, "cadence-2 snapshots were taken");
        let kind = cb.remove_slots_gas(&[2], &mut gas).unwrap();
        assert_eq!(kind, RemovalKind::Replayed, "pivotal slot forces a replay");
        let model = [gens[0].clone(), gens[1].clone(), gens[3].clone()];
        for target in [v(&[2, 1, 0, 0]), v(&[0, 0, 1, 1]), v(&[1, 1, 1, 1])] {
            assert_eq!(
                cb.solve_gas(&target, &mut gas).unwrap(),
                scratch_solve(&model, &target)
            );
        }
        // Out-of-span after the removal: slot 2's pivot died with it.
        assert!(cb.solve_gas(&v(&[0, 0, 1, 0]), &mut gas).unwrap().is_none());
    }

    #[test]
    fn grow_and_drop_columns_round_trip() {
        let mut cb = CheckpointedBasis::new(2, 100);
        let mut gas = Gas::unlimited();
        cb.push_generator(v(&[1, 2]));
        cb.catch_up_gas(&mut gas).unwrap();
        cb.grow_dim(4);
        assert_eq!(cb.dim(), 4);
        cb.push_generator(v(&[0, 0, 1, 0]));
        cb.catch_up_gas(&mut gas).unwrap();
        // Solve in the grown dimension.
        let alpha = cb.solve_gas(&v(&[2, 4, 5, 0]), &mut gas).unwrap().unwrap();
        assert_eq!(alpha, v(&[2, 5]));
        // Drop the never-touched columns (3) and the one slot-1 owns after
        // removing slot 1.
        cb.remove_slots_gas(&[1], &mut gas).unwrap();
        cb.drop_columns(&[2, 3]);
        assert_eq!(cb.dim(), 2);
        let alpha = cb.solve_gas(&v(&[3, 6]), &mut gas).unwrap().unwrap();
        assert_eq!(alpha, v(&[3]));
    }

    #[test]
    fn interrupted_replay_resumes_on_next_operation() {
        use cqdet_parallel::{Budget, CancelToken};
        let n = 24;
        let gens: Vec<QVec> = (0..n)
            .map(|i| {
                QVec(
                    (0..n)
                        .map(|j| Rat::from_i64(((i * j + 3 * i + j + 1) % 97) as i64 - 48))
                        .collect(),
                )
            })
            .collect();
        let mut cb = CheckpointedBasis::new(n, 4);
        for g in &gens {
            cb.push_generator(g.clone());
        }
        cb.catch_up_gas(&mut Gas::unlimited()).unwrap();
        // A tiny budget interrupts the replay mid-feed…
        let tiny = Budget::with_limits(Some(8), None);
        let mut gas = Gas::new(&CancelToken::none(), &tiny, "span");
        let stop = cb.remove_slots_gas(&[1], &mut gas).unwrap_err();
        assert!(matches!(stop, Interrupt::Exhausted(_)));
        assert!(cb.fed() < cb.len(), "the echelon lags after the interrupt");
        // …and the next unmetered solve catches up and answers exactly.
        let mut model = gens.clone();
        model.remove(1);
        let target = {
            let mut acc = QVec::zeros(n);
            for g in &model {
                acc = &acc + g;
            }
            acc
        };
        let alpha = cb
            .solve_gas(&target, &mut Gas::unlimited())
            .unwrap()
            .expect("sum of survivors is in their span");
        let mut recombined = QVec::zeros(n);
        for (a, g) in alpha.iter().zip(&model) {
            recombined = &recombined + &g.scale(a);
        }
        assert_eq!(recombined, target);
    }

    #[test]
    fn checkpoint_byte_figures_match_a_fresh_walk() {
        let assert_fresh = |cb: &CheckpointedBasis| {
            for cp in &cb.checkpoints {
                let walked: usize = cp
                    .rows
                    .iter()
                    .map(|(_, vec, coords)| {
                        vec.heap_bytes() + coords.iter().map(Rat::heap_bytes).sum::<usize>()
                    })
                    .sum();
                assert_eq!(cp.bytes, walked, "checkpoint at {}", cp.inserted);
            }
        };
        let mut cb = CheckpointedBasis::new(3, 2);
        let mut gas = Gas::unlimited();
        for g in [v(&[1, 0, 0]), v(&[1, 1, 0]), v(&[0, 0, 5]), v(&[2, 1, 5])] {
            cb.push_generator(g);
        }
        cb.catch_up_gas(&mut gas).unwrap();
        assert!(cb.checkpoints() >= 2);
        assert_fresh(&cb);
        // Growing pads every checkpoint row; the figures follow.
        cb.grow_dim(7);
        assert_fresh(&cb);
        cb.push_generator(v(&[0, 0, 0, 1, 0, 0, 0]));
        cb.push_generator(v(&[0, 0, 0, 0, 1, 0, 0]));
        cb.catch_up_gas(&mut gas).unwrap();
        assert_fresh(&cb);
        cb.remove_slots_gas(&[1], &mut gas).unwrap();
        assert_fresh(&cb);
    }

    #[test]
    fn heap_bytes_tracks_bigint_growth() {
        use cqdet_bigint::Nat;
        let mut b = IncrementalBasis::new(2);
        b.insert(&v(&[1, 2]));
        let small = b.heap_bytes();
        let big = Rat::from_nat(Nat::one().shl_bits(4096));
        let mut b2 = IncrementalBasis::new(2);
        b2.insert(&QVec(vec![big.clone(), big]));
        assert!(
            b2.heap_bytes() > small + 512,
            "4096-bit entries must charge their limb storage"
        );
    }
}
