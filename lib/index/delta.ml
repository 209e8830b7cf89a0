module Tk = Faerie_tokenize
module Metrics = Faerie_obs.Metrics

(* Mutable overlay over a frozen index. The base blocks are never touched:
   adds get fresh ids past the base id space and live in small per-token
   arrays; removes set a tombstone bit and bump a per-block tombstone tally
   (an entity appears once per distinct token, so the tally is maintained
   without decoding any block). [view] materializes an immutable
   {!Inverted_index.of_overlay} snapshot — every mutable structure is
   copied or replaced wholesale, so published views are safe to read from
   worker domains while further mutations land here. *)

let m_dict_adds = Metrics.counter "dict_adds"

let m_dict_removes = Metrics.counter "dict_removes"

let m_compactions = Metrics.counter "compactions"

let g_delta_entities = Metrics.gauge "delta_entities"

(* The copies a mutation needs, made on the first [add], [remove] or
   [mem]: a never-mutated overlay (every serve start-up, reload and shard
   builds one) holds no copy of the base dictionary. *)
type priv = {
  interner : Tk.Interner.t;
      (* private copy: [add] interns new entity tokens here, never into the
         table live readers probe *)
  by_raw : (string, int) Hashtbl.t;  (* live raw -> id *)
}

type t = {
  base : Inverted_index.t;
  mode : Tk.Document.mode;
  mutable priv : priv option;
  mutable entities : Entity.t array;
      (* dense: base entities ++ added (tombstoned slots stay) *)
  mutable dead : Bytes.t;  (* tombstone bitset over entity ids *)
  dead_counts : int array;  (* per base token: tombstones in its block *)
  adds_by_token : (int, int list ref) Hashtbl.t;  (* live added ids *)
  base_n : int;
  mutable n_tomb : int;  (* tombstoned base entities *)
  mutable n_add_live : int;
  mutable mutated : bool;
  mutable cache : Inverted_index.t option;
}

type add_result = Added of int | Exists of int

type remove_result = Removed of int | Absent

let is_dead t id =
  let i = id lsr 3 in
  i < Bytes.length t.dead
  && Char.code (Bytes.get t.dead i) land (1 lsl (id land 7)) <> 0

let set_dead t id =
  let need = (id lsr 3) + 1 in
  if Bytes.length t.dead < need then begin
    let b = Bytes.make (max need (2 * Bytes.length t.dead)) '\000' in
    Bytes.blit t.dead 0 b 0 (Bytes.length t.dead);
    t.dead <- b
  end;
  let i = id lsr 3 in
  Bytes.set t.dead i
    (Char.chr (Char.code (Bytes.get t.dead i) lor (1 lsl (id land 7))))

let create base =
  if Inverted_index.is_overlay base then
    invalid_arg "Delta.create: base must be a frozen index, not an overlay";
  let dict = Inverted_index.dictionary base in
  let entities = Dictionary.entities dict in
  Metrics.set g_delta_entities 0.;
  {
    base;
    mode = Dictionary.mode dict;
    priv = None;
    entities;
    dead = Bytes.create 0;
    dead_counts = Array.make (Inverted_index.n_tokens base) 0;
    adds_by_token = Hashtbl.create 64;
    base_n = Array.length entities;
    n_tomb = 0;
    n_add_live = 0;
    mutated = false;
    cache = None;
  }

let priv t =
  match t.priv with
  | Some p -> p
  | None ->
      let dict = Inverted_index.dictionary t.base in
      let by_raw = Hashtbl.create (max 64 (Array.length t.entities)) in
      Array.iter
        (fun e -> Hashtbl.replace by_raw e.Entity.raw e.Entity.id)
        t.entities;
      let p = { interner = Tk.Interner.copy (Dictionary.interner dict); by_raw } in
      t.priv <- Some p;
      p

let base t = t.base

let pending t = t.n_tomb + t.n_add_live

let live_count t = t.base_n - t.n_tomb + t.n_add_live

let mem t raw = Hashtbl.find_opt (priv t).by_raw raw

let note_pending t = Metrics.set g_delta_entities (float_of_int (pending t))

let tokenize t p raw =
  match t.mode with
  | Tk.Document.Word -> Tk.Tokenizer.words_intern p.interner raw
  | Tk.Document.Gram q -> Tk.Tokenizer.qgrams_intern p.interner ~q raw

let add t raw =
  let p = priv t in
  match Hashtbl.find_opt p.by_raw raw with
  | Some id -> Exists id
  | None ->
      let id = Array.length t.entities in
      let text = Tk.Tokenizer.normalize raw in
      let e = Entity.make ~id ~raw ~text ~spans:(tokenize t p raw) in
      t.entities <- Array.append t.entities [| e |];
      Array.iter
        (fun tok ->
          match Hashtbl.find_opt t.adds_by_token tok with
          | Some ids -> ids := id :: !ids
          | None -> Hashtbl.add t.adds_by_token tok (ref [ id ]))
        e.Entity.distinct_tokens;
      Hashtbl.replace p.by_raw raw id;
      t.n_add_live <- t.n_add_live + 1;
      t.mutated <- true;
      t.cache <- None;
      Metrics.incr m_dict_adds;
      note_pending t;
      Added id

let remove t raw =
  let p = priv t in
  match Hashtbl.find_opt p.by_raw raw with
  | None -> Absent
  | Some id ->
      Hashtbl.remove p.by_raw raw;
      set_dead t id;
      let e = t.entities.(id) in
      if id < t.base_n then begin
        Array.iter
          (fun tok -> t.dead_counts.(tok) <- t.dead_counts.(tok) + 1)
          e.Entity.distinct_tokens;
        t.n_tomb <- t.n_tomb + 1
      end
      else begin
        (* An added entity is physically withdrawn from the add lists; its
           id slot stays (tombstoned) so ids never get reused. *)
        Array.iter
          (fun tok ->
            match Hashtbl.find_opt t.adds_by_token tok with
            | Some ids -> ids := List.filter (fun i -> i <> id) !ids
            | None -> ())
          e.Entity.distinct_tokens;
        t.n_add_live <- t.n_add_live - 1
      end;
      t.mutated <- true;
      t.cache <- None;
      Metrics.incr m_dict_removes;
      note_pending t;
      Removed id

let view t =
  if not t.mutated then t.base
  else
    match t.cache with
    | Some v -> v
    | None ->
        let interner = (priv t).interner in
        let ntok = Tk.Interner.size interner in
        let adds = Array.make ntok [||] in
        Hashtbl.iter
          (fun tok ids ->
            match !ids with
            | [] -> ()
            | l ->
                let a = Array.of_list l in
                Array.sort compare a;
                if tok >= 0 && tok < ntok then adds.(tok) <- a)
          t.adds_by_token;
        let dict =
          Dictionary.of_stored ~mode:t.mode
            ~interner:(Tk.Interner.copy interner)
            t.entities
        in
        let v =
          Inverted_index.of_overlay t.base ~dictionary:dict ~adds
            ~dead:(Bytes.copy t.dead)
            ~dead_counts:(Array.copy t.dead_counts)
        in
        t.cache <- Some v;
        v

let live_raws t =
  let out = ref [] in
  Array.iter
    (fun e -> if not (is_dead t e.Entity.id) then out := e.Entity.raw :: !out)
    t.entities;
  List.rev !out

let compact t =
  let dict = Dictionary.create ~mode:t.mode (live_raws t) in
  let ix = Inverted_index.build dict in
  Metrics.incr m_compactions;
  ix
