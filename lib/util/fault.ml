exception Injected of string

type config = { seed : int; rates : (string * float) list }

(* The armed configuration is immutable and swapped atomically, so worker
   domains racing with configure/disarm only ever see a consistent config. *)
let state : config option Atomic.t = Atomic.make None

let injected = Atomic.make 0

(* Per-domain scope: the document id being processed plus one call counter
   per site, reset on entry. Keyed decisions make the fault schedule a
   function of the document, not of domain scheduling. *)
type ctx = { doc : int; counters : (string, int ref) Hashtbl.t }

let ctx_key : ctx option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let configure c = Atomic.set state (Some c)

let disarm () = Atomic.set state None

let active () = Atomic.get state <> None

let current () = Atomic.get state

let config_to_json c =
  Json.Obj
    [
      ("seed", Json.int c.seed);
      ( "rates",
        Json.Obj (List.map (fun (site, p) -> (site, Json.Num p)) c.rates) );
    ]

let config_of_json j =
  Option.map
    (fun seed ->
      let rate (site, v) = Option.map (fun p -> (site, p)) (Json.to_num v) in
      let rates =
        match Json.member "rates" j with
        | Some (Json.Obj kvs) -> List.filter_map rate kvs
        | _ -> []
      in
      { seed; rates })
    (Option.bind (Json.member "seed" j) Json.to_int)

let injected_count () = Atomic.get injected

let reset_counts () = Atomic.set injected 0

let with_context doc f =
  let slot = Domain.DLS.get ctx_key in
  let saved = !slot in
  slot := Some { doc; counters = Hashtbl.create 8 };
  Fun.protect ~finally:(fun () -> slot := saved) f

(* splitmix64 finalizer: full-avalanche mixing of the decision key. *)
let mix64 x =
  let open Int64 in
  let x = logxor x (shift_right_logical x 30) in
  let x = mul x 0xbf58476d1ce4e5b9L in
  let x = logxor x (shift_right_logical x 27) in
  let x = mul x 0x94d049bb133111ebL in
  logxor x (shift_right_logical x 31)

let decide cfg ~site ~doc ~ord =
  match List.assoc_opt site cfg.rates with
  | None -> false
  | Some rate when rate <= 0. -> false
  | Some rate ->
      let h = mix64 (Int64.of_int cfg.seed) in
      let h = mix64 (Int64.logxor h (Int64.of_int (Hashtbl.hash site))) in
      let h = mix64 (Int64.logxor h (Int64.of_int doc)) in
      let h = mix64 (Int64.logxor h (Int64.of_int ord)) in
      let u =
        Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.
      in
      u < rate

let site name =
  match Atomic.get state with
  | None -> ()
  | Some cfg -> (
      match !(Domain.DLS.get ctx_key) with
      | None -> ()
      | Some ctx ->
          let counter =
            match Hashtbl.find_opt ctx.counters name with
            | Some c -> c
            | None ->
                let c = ref 0 in
                Hashtbl.add ctx.counters name c;
                c
          in
          let ord = !counter in
          incr counter;
          if decide cfg ~site:name ~doc:ctx.doc ~ord then begin
            Atomic.incr injected;
            raise (Injected name)
          end)

let known_sites =
  [
    "tokenize"; "heap_merge"; "verify"; "codec_io"; "supervisor_worker";
    "codec_rename"; "serve_decode"; "shard_frame"; "shard_stats";
    "wal_append"; "wal_replay"; "compact_save"; "compact_commit";
  ]
