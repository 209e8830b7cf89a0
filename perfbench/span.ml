(* In-memory span recorder for the traced replay. Spans are recorded by
   the benchmark around its own calls into each layer's public functions
   (nothing inside the program is instrumented); they stay in memory and
   are written out once, at the end of the run. *)

type span = {
  name : string;
  doc : int;  (** request ordinal the span belongs to; -1 for none *)
  parent : int;  (** index of the enclosing span; -1 for a root *)
  start_ns : int64;
  mutable end_ns : int64;
}

type t = { mutable spans : span array; mutable n : int; mutable open_ : int list }

let create () = { spans = [||]; n = 0; open_ = [] }

let now = Faerie_obs.Trace.now_ns

let push t s =
  if t.n = Array.length t.spans then begin
    let bigger = Array.make (max 1024 (2 * t.n)) s in
    Array.blit t.spans 0 bigger 0 t.n;
    t.spans <- bigger
  end;
  t.spans.(t.n) <- s;
  t.n <- t.n + 1

(* [with_ t name ~doc f] records one span around [f ()], nested under
   whichever span is open. *)
let with_ t name ~doc f =
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  let idx = t.n in
  push t { name; doc; parent; start_ns = now (); end_ns = 0L };
  t.open_ <- idx :: t.open_;
  let finish () =
    t.spans.(idx).end_ns <- now ();
    t.open_ <- List.tl t.open_
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let duration s = Int64.to_float (Int64.sub s.end_ns s.start_ns)

(* Self time per span name: each span's duration minus the time its
   direct children cover, summed by name. Returns (name, total self ns,
   span count) in first-seen order. *)
let self_times t =
  let child = Array.make t.n 0. in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. duration s
  done;
  let order = ref [] and tbl = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    let self = duration s -. child.(i) in
    match Hashtbl.find_opt tbl s.name with
    | Some (acc, k) -> Hashtbl.replace tbl s.name (acc +. self, k + 1)
    | None ->
        order := s.name :: !order;
        Hashtbl.replace tbl s.name (self, 1)
  done;
  List.rev_map
    (fun name ->
      let total, k = Hashtbl.find tbl name in
      (name, total, k))
    !order

let self_of t name =
  match List.find_opt (fun (n, _, _) -> n = name) (self_times t) with
  | Some (_, total, k) -> (total, k)
  | None -> (0., 0)

(* One TSV line per span: index, parent, doc, name, start, end (ns). *)
let write t path =
  let oc = open_out path in
  output_string oc "span\tparent\tdoc\tname\tstart_ns\tend_ns\n";
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%Ld\t%Ld\n" i s.parent s.doc s.name
      s.start_ns s.end_ns
  done;
  close_out oc
