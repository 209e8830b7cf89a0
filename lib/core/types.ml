type candidate = { entity : int; start : int; len : int }

type token_match = {
  m_entity : int;
  m_start : int;
  m_len : int;
  m_score : Faerie_sim.Verify.Score.t;
}

type pruning = No_prune | Lazy_count | Bucket_count | Binary_window

let pruning_name = function
  | No_prune -> "none"
  | Lazy_count -> "lazy"
  | Bucket_count -> "bucket"
  | Binary_window -> "binary"

let all_prunings = [ No_prune; Lazy_count; Bucket_count; Binary_window ]

type char_match = {
  c_entity : int;
  c_start : int;
  c_len : int;
  c_score : Faerie_sim.Verify.Score.t;
}

let compare_char_match a b =
  let c = compare a.c_entity b.c_entity in
  if c <> 0 then c
  else
    let c = compare a.c_start b.c_start in
    if c <> 0 then c else compare a.c_len b.c_len

let compare_span a b =
  let c = compare a.c_start b.c_start in
  if c <> 0 then c
  else
    let c = compare a.c_len b.c_len in
    if c <> 0 then c else compare a.c_entity b.c_entity

type stats = {
  mutable entities_seen : int;
  mutable entities_pruned_lazy : int;
  mutable buckets_pruned : int;
  mutable candidates : int;
  mutable survivors : int;
  mutable verified : int;
}

let new_stats () =
  {
    entities_seen = 0;
    entities_pruned_lazy = 0;
    buckets_pruned = 0;
    candidates = 0;
    survivors = 0;
    verified = 0;
  }

let blit_stats ~src ~dst =
  dst.entities_seen <- src.entities_seen;
  dst.entities_pruned_lazy <- src.entities_pruned_lazy;
  dst.buckets_pruned <- src.buckets_pruned;
  dst.candidates <- src.candidates;
  dst.survivors <- src.survivors;
  dst.verified <- src.verified

let pp_stats ppf s =
  Format.fprintf ppf
    "{seen=%d; lazy_pruned=%d; buckets_pruned=%d; candidates=%d; survivors=%d; verified=%d}"
    s.entities_seen s.entities_pruned_lazy s.buckets_pruned s.candidates
    s.survivors s.verified

let compare_candidate a b =
  let c = compare a.entity b.entity in
  if c <> 0 then c
  else
    let c = compare a.start b.start in
    if c <> 0 then c else compare a.len b.len

let compare_token_match a b =
  let c = compare a.m_entity b.m_entity in
  if c <> 0 then c
  else
    let c = compare a.m_start b.m_start in
    if c <> 0 then c else compare a.m_len b.m_len
