(* The benchmark's workloads and their seeded inputs: a dictionary and an
   NDJSON request stream, both pure functions of (workload, seed, size). *)

module C = Faerie_datagen.Corpus
module Sim = Faerie_sim.Sim
module Json = Faerie_util.Json
open Faerie_core

type profile = Dblp | Webpage

type t = {
  name : string;
  why : string;  (** the one-sentence reason the workload exists *)
  profile : profile;
  sim : Sim.t;
  q : int;  (** gram length; the server's default (2) for word-mode sims *)
  sim_flags : string list;  (** how [faerie serve] is told the same *)
  shards : int;  (** 0: single-process pool *)
  mutate : bool;  (** a dict_add/dict_remove on every 10th stream line *)
  n_docs : int;
  paced_rate : float;
      (** stream lines per second in the paced phase: about half the
          saturated rate measured at the commit that defined the benchmark *)
}

let dblp_ed2 =
  {
    name = "dblp-ed2";
    why =
      "Many short documents: per-request fixed costs (codec, admission queue) \
       show, and verification includes the Fallback path short dictionary \
       names trigger.";
    profile = Dblp;
    sim = Sim.Edit_distance 2;
    q = 4;
    sim_flags = [ "-s"; "ed=2"; "-q"; "4" ];
    shards = 0;
    mutate = false;
    n_docs = 3000;
    paced_rate = 200.;
  }

let webpage_jac =
  {
    name = "webpage-jac";
    why =
      "Long pages: heap merge and window search do almost all the work, \
       verification and per-request serving costs almost none.";
    profile = Webpage;
    sim = Sim.Jaccard 0.9;
    q = 2;
    sim_flags = [ "-s"; "jac=0.9" ];
    shards = 0;
    mutate = false;
    n_docs = 100;
    paced_rate = 10.;
  }

let dblp_ed2_sharded =
  {
    dblp_ed2 with
    name = "dblp-ed2-sharded";
    why =
      "The dblp-ed2 work split over 2 shard processes: adds frame codec, pipe \
       transit and fan-out/merge with one document in flight.";
    shards = 2;
    paced_rate = 200.;
  }

let dblp_mutate =
  {
    dblp_ed2 with
    name = "dblp-mutate";
    why =
      "Writes beside reads: the only workload that exercises Delta and Wal, \
       so a read-path change that costs writes (or the reverse) shows.";
    mutate = true;
    paced_rate = 150.;
  }

let all = [ dblp_ed2; webpage_jac; dblp_ed2_sharded; dblp_mutate ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Sizes: [Full] is what a measured run uses; [Small] is the self-test
   size that finishes in seconds. *)
type size = Full | Small

let n_entities = function Full -> 10_000 | Small -> 400

let n_docs w = function Full -> w.n_docs | Small -> max 4 (w.n_docs / 50)

(* Short names take the exhaustive Fallback path under ed=2, q=4 and
   dominate dblp verification cost, so their count is pinned rather than
   left to the generator's luck. *)
let n_fallback = function Full -> 3 | Small -> 1

let server_flags w ~dict ~wal =
  [ "serve"; "--dict=" ^ dict ] @ w.sim_flags @ [ "--domains"; "1" ]
  @ (if w.shards > 0 then [ "--shards"; string_of_int w.shards ] else [])
  @ match wal with Some f -> [ "--wal=" ^ f ] | None -> []

type inputs = {
  w : t;
  seed : int;
  entities : string array;
  docs : string array;  (** raw document texts *)
  doc_lines : string array;  (** the NDJSON request line of each doc *)
}

let text_line text = Json.to_string (Json.Obj [ ("text", Json.Str text) ])

(* Rebuild the dblp dictionary so exactly [k] entities take the Fallback
   path, spread evenly over the id space (and so over shards). The
   generator's own short names are dropped: a 3-letter name within edit
   distance 2 matches nearly every substring, so their number and length
   would swing the cost of a run from seed to seed. The [k] short names
   are instead long names cut to 10 characters (a surname cut short). *)
let pin_fallback ~sim ~q ~k ~n pool =
  let p = Problem.create ~sim ~q (Array.to_list pool) in
  let long =
    List.filteri
      (fun i _ -> (Problem.info p i).Problem.path <> Problem.Fallback)
      (Array.to_list pool)
    |> Array.of_list
  in
  let n_long = n - k in
  if Array.length long < n_long + k then failwith "pin_fallback: pool too small";
  let short =
    Array.init k (fun i -> String.trim (String.sub long.(n_long + i) 0 10))
  in
  let out = Array.make n "" in
  let li = ref 0 and fi = ref 0 in
  for i = 0 to n - 1 do
    (* fallback entity j sits at id j * n / k *)
    if !fi < k && i = !fi * n / k then begin
      out.(i) <- short.(!fi);
      incr fi
    end
    else begin
      out.(i) <- long.(!li);
      incr li
    end
  done;
  out

let generate ?(size = Full) w ~seed =
  let n = n_entities size and n_docs = n_docs w size in
  let entities, docs =
    match w.profile with
    | Dblp ->
        let c = C.dblp ~seed ~n_entities:(n + 256) ~n_documents:n_docs () in
        ( pin_fallback ~sim:w.sim ~q:w.q ~k:(n_fallback size) ~n c.C.entities,
          c.C.documents )
    | Webpage ->
        let c = C.webpage ~seed ~n_entities:n ~n_documents:n_docs () in
        (c.C.entities, c.C.documents)
  in
  let docs = Array.map (fun d -> d.C.text) docs in
  { w; seed; entities; docs; doc_lines = Array.map text_line docs }

(* ---- the request stream ---- *)

type item = Doc of int  (** distinct document index *) | Mut of int  (** slot *)

let item inp i =
  let n = Array.length inp.docs in
  if inp.w.mutate then
    if i mod 10 = 9 then Mut (i / 10) else Doc ((i - (i / 10)) mod n)
  else Doc (i mod n)

(* Mutation entities: 12 characters from an alphabet no generated
   document or dictionary name uses, with every 4-gram distinct across
   all of them. By the q-gram count lemma no mutation entity is then
   within edit distance 2 of any substring of a document or of another
   mutation entity, so a document's answer (and the work it costs) never
   depends on which mutations landed before it ran, and a probe line
   holding one mutation entity matches exactly that entity while live. *)
let alphabet = "0123456789#$%&*+=@^~"

type op = Add of int | Remove of int  (** index into the entity list *)

type mutations = {
  xs : string Faerie_util.Dynarray.t;  (** mutation entity strings *)
  ops : op Faerie_util.Dynarray.t;  (** op of each slot *)
  grams : (string, unit) Hashtbl.t;
  rng : Random.State.t;
  live : int Queue.t;  (** added, not yet removed, oldest first *)
}

let mutations ~seed =
  {
    xs = Faerie_util.Dynarray.create ();
    ops = Faerie_util.Dynarray.create ();
    grams = Hashtbl.create 4096;
    rng = Random.State.make [| seed; 0x6d7574 |];
    live = Queue.create ();
  }

let rec fresh_x m =
  let s =
    String.init 12 (fun _ ->
        alphabet.[Random.State.int m.rng (String.length alphabet)])
  in
  let gs = List.init 9 (fun i -> String.sub s i 4) in
  if
    List.exists (Hashtbl.mem m.grams) gs
    || List.length (List.sort_uniq compare gs) < 9
  then fresh_x m
  else begin
    List.iter (fun g -> Hashtbl.replace m.grams g ()) gs;
    Faerie_util.Dynarray.push m.xs s;
    Faerie_util.Dynarray.length m.xs - 1
  end

(* Slot [k]'s op. Adds until 8 entities are live, then alternate: even
   slots add a fresh entity, odd slots remove the oldest live one (added
   >= 8 slots, i.e. ~80 lines, earlier). *)
let op m k =
  while Faerie_util.Dynarray.length m.ops <= k do
    let slot = Faerie_util.Dynarray.length m.ops in
    let o =
      if Queue.length m.live < 8 || slot mod 2 = 0 then begin
        let x = fresh_x m in
        Queue.add x m.live;
        Add x
      end
      else Remove (Queue.pop m.live)
    in
    Faerie_util.Dynarray.push m.ops o
  done;
  Faerie_util.Dynarray.get m.ops k

let x m i = Faerie_util.Dynarray.get m.xs i

let op_line m = function
  | Add i ->
      Json.to_string
        (Json.Obj [ ("op", Json.Str "dict_add"); ("entity", Json.Str (x m i)) ])
  | Remove i ->
      Json.to_string
        (Json.Obj
           [ ("op", Json.Str "dict_remove"); ("entity", Json.Str (x m i)) ])

let op_target = function Add i | Remove i -> i

let probe_text m o = x m (op_target o)

let line inp m i =
  match item inp i with
  | Doc d -> inp.doc_lines.(d)
  | Mut k -> op_line m (op m k)

(* The generator must keep its promise: no mutation-alphabet character in
   any document or base entity. *)
let check_alphabet inp =
  let bad s = String.exists (fun c -> String.contains alphabet c) s in
  if Array.exists bad inp.docs || Array.exists bad inp.entities then
    failwith "workload: generated text uses the mutation alphabet"

(* Digest of the dictionary plus the first [n] stream lines: equal seeds
   must give byte-identical streams, different seeds different ones. *)
let stream_digest inp ~n =
  let m = mutations ~seed:inp.seed in
  let b = Buffer.create 65536 in
  Array.iter
    (fun e ->
      Buffer.add_string b e;
      Buffer.add_char b '\n')
    inp.entities;
  for i = 0 to n - 1 do
    Buffer.add_string b (line inp m i);
    Buffer.add_char b '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))
