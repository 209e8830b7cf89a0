module Ix = Faerie_index
module Wal = Faerie_util.Wal

type t = {
  sim : Faerie_sim.Sim.t;
  mutable delta : Ix.Delta.t;
  ex : Extractor.t Atomic.t;
  gen : int Atomic.t;
}

let extractor_of sim delta =
  Extractor.of_problem (Problem.of_index ~sim (Ix.Delta.view delta))

let apply_to d = function
  | Wal.Add raw -> (
      match Ix.Delta.add d raw with
      | Ix.Delta.Added id -> (true, id)
      | Ix.Delta.Exists id -> (false, id))
  | Wal.Remove raw -> (
      match Ix.Delta.remove d raw with
      | Ix.Delta.Removed id -> (true, id)
      | Ix.Delta.Absent -> (false, -1))

let create ?(gen = 0) ?replay ~sim index =
  let delta = Ix.Delta.create index in
  Option.iter (fun feed -> feed (fun op -> ignore (apply_to delta op))) replay;
  { sim; delta; ex = Atomic.make (extractor_of sim delta); gen = Atomic.make gen }

let of_problem ?(gen = 0) p =
  {
    sim = Problem.sim p;
    delta = Ix.Delta.create (Problem.index p);
    ex = Atomic.make (Extractor.of_problem p);
    gen = Atomic.make gen;
  }

let extractor t = Atomic.get t.ex
let generation t = Atomic.get t.gen

let apply t op =
  let applied, _ as r = apply_to t.delta op in
  if applied then Atomic.set t.ex (extractor_of t.sim t.delta);
  r

let pending t = Ix.Delta.pending t.delta
let live_count t = Ix.Delta.live_count t.delta
let fold t = Problem.of_index ~sim:t.sim (Ix.Delta.compact t.delta)

let adopt t next =
  t.delta <- next.delta;
  Atomic.set t.ex (Atomic.get next.ex);
  Atomic.set t.gen (Atomic.get next.gen)
