let distance r s =
  let m = String.length r and n = String.length s in
  if m = 0 then n
  else if n = 0 then m
  else begin
    (* Keep the shorter string on the column axis. *)
    let r, s, m, n = if m <= n then (r, s, m, n) else (s, r, n, m) in
    let prev = Array.init (m + 1) (fun i -> i) in
    let curr = Array.make (m + 1) 0 in
    for j = 1 to n do
      curr.(0) <- j;
      let sj = s.[j - 1] in
      for i = 1 to m do
        let cost = if r.[i - 1] = sj then 0 else 1 in
        curr.(i) <-
          min (min (prev.(i) + 1) (curr.(i - 1) + 1)) (prev.(i - 1) + cost)
      done;
      Array.blit curr 0 prev 0 (m + 1)
    done;
    prev.(m)
  end

let infinity_cost = max_int / 2

(* OCaml native ints carry 63 usable bits; the Myers recurrence needs one
   spare bit above the pattern mask for the addition carry, so patterns up
   to 62 characters run bit-parallel and longer ones fall back to the
   banded DP. *)
let myers_max_len = 62

(* Per-domain scratch, so neither engine allocates on the verify hot path:
   two DP rows for the banded fallback, a 256-entry pattern-bitmap table
   for Myers, and a fixed buffer for the end positions a search pass
   collects. The peq table is cleared after each call by walking the
   pattern's characters again (<= 62 writes), never the whole table. *)
type scratch = {
  mutable prev : int array;
  mutable curr : int array;
  peq : int array;
  ends : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        prev = Array.make 64 0;
        curr = Array.make 64 0;
        peq = Array.make 256 0;
        ends = Array.make 256 0;
      })

let rows sc m =
  if Array.length sc.prev < m + 1 then begin
    let cap = max (m + 1) (2 * Array.length sc.prev) in
    sc.prev <- Array.make cap 0;
    sc.curr <- Array.make cap 0
  end;
  (sc.prev, sc.curr)

(* Threshold-banded DP over slices: distance between r[r_off..r_off+m) and
   s[s_off..s_off+n), m <= n. prev.(i) = D(i, j-1); cells outside the band
   of half-width [cap] are infinity. *)
let banded_core ~cap sc r r_off m s s_off n =
  let prev, curr = rows sc m in
  Array.fill prev 0 (m + 1) infinity_cost;
  Array.fill curr 0 (m + 1) infinity_cost;
  for i = 0 to min m cap do
    prev.(i) <- i
  done;
  let result = ref (if n = 0 then Some m else None) in
  (try
     for j = 1 to n do
       let lo = max 0 (j - cap) and hi = min m (j + cap) in
       let row_min = ref infinity_cost in
       for i = lo to hi do
         let v =
           if i = 0 then j
           else begin
             let cost =
               if
                 String.unsafe_get r (r_off + i - 1)
                 = String.unsafe_get s (s_off + j - 1)
               then 0
               else 1
             in
             let best = prev.(i - 1) + cost in
             let best =
               if i - 1 >= lo then min best (curr.(i - 1) + 1) else best
             in
             let best =
               if i <= j + cap - 1 then min best (prev.(i) + 1) else best
             in
             best
           end
         in
         curr.(i) <- v;
         if v < !row_min then row_min := v
       done;
       if !row_min > cap then raise Exit;
       (* Reset prev outside next band, then swap rows. *)
       Array.blit curr 0 prev 0 (m + 1);
       Array.fill curr 0 (m + 1) infinity_cost;
       if lo > 0 then prev.(lo - 1) <- infinity_cost
     done;
     if prev.(m) <= cap then result := Some prev.(m)
   with Exit -> result := None);
  !result

(* Pattern bitmaps: bit i of peq.(c) is set iff p[p_off + i] = c. *)
let set_peq peq p p_off m =
  for i = 0 to m - 1 do
    let c = Char.code (String.unsafe_get p (p_off + i)) in
    peq.(c) <- peq.(c) lor (1 lsl i)
  done

let clear_peq peq p p_off m =
  for i = 0 to m - 1 do
    peq.(Char.code (String.unsafe_get p (p_off + i))) <- 0
  done

(* Myers bit-vector edit distance (Hyyrö's formulation): the pattern
   p[p_off..p_off+m) is encoded as per-character position bitmaps and each
   text character updates the whole DP column in O(1) word operations.
   Requires 1 <= m <= myers_max_len and m <= n. All vectors are kept masked
   to the low m bits, so the (Eq land VP) + VP carry never reaches the sign
   bit for m <= 62. *)
let myers_core ~cap sc p p_off m t t_off n =
  let peq = sc.peq in
  set_peq peq p p_off m;
  let mask = (1 lsl m) - 1 in
  let high = 1 lsl (m - 1) in
  let vp = ref mask and vn = ref 0 in
  let score = ref m in
  let cut = ref false in
  let j = ref 0 in
  while (not !cut) && !j < n do
    let eq = peq.(Char.code (String.unsafe_get t (t_off + !j))) in
    let d0 = (((eq land !vp) + !vp) lxor !vp) lor eq lor !vn in
    let hp = !vn lor lnot (d0 lor !vp) in
    let hn = !vp land d0 in
    if hp land high <> 0 then incr score
    else if hn land high <> 0 then decr score;
    let hp = ((hp lsl 1) lor 1) land mask in
    let hn = (hn lsl 1) land mask in
    vp := (hn lor lnot (d0 lor hp)) land mask;
    vn := hp land d0;
    incr j;
    (* The score drops by at most 1 per remaining text character, so once
       it cannot get back under the cap the column loop is done. *)
    if !score - (n - !j) > cap then cut := true
  done;
  clear_peq peq p p_off m;
  if !cut then None else if !score <= cap then Some !score else None

(* Hands [f] the first [k] collected ends. The scan's bits are cleared
   first: the per-length checks a caller makes in [f] run [myers_core],
   which sets and clears the same [peq] table. *)
let deliver_ends peq p m ends k f =
  clear_peq peq p 0 m;
  for i = 0 to k - 1 do
    f ends.(i)
  done

(* The free-start search form of [myers_core] (Myers 1999): the same
   column update with the DP's top row held at 0, so any text position may
   start a match and no 1 is shifted in at row 0. After reading t[j],
   [score] is min over i of ed(p, t[i..j+1)). Ends within [cap] go to the
   fixed [sc.ends] buffer, which is delivered whenever it fills and at the
   end, so memory does not grow with the text. *)
let iter_search_ends ~cap p ~text ~f =
  let m = String.length p in
  if m < 1 || m > myers_max_len then
    invalid_arg "Edit_distance.iter_search_ends: pattern length";
  let sc = Domain.DLS.get scratch_key in
  let peq = sc.peq and ends = sc.ends in
  set_peq peq p 0 m;
  let mask = (1 lsl m) - 1 in
  let high = 1 lsl (m - 1) in
  let vp = ref mask and vn = ref 0 in
  let score = ref m in
  let k = ref 0 in
  for j = 0 to String.length text - 1 do
    let eq = peq.(Char.code (String.unsafe_get text j)) in
    let d0 = (((eq land !vp) + !vp) lxor !vp) lor eq lor !vn in
    let hp = !vn lor lnot (d0 lor !vp) in
    let hn = !vp land d0 in
    if hp land high <> 0 then incr score
    else if hn land high <> 0 then decr score;
    let hp = (hp lsl 1) land mask in
    let hn = (hn lsl 1) land mask in
    vp := (hn lor lnot (d0 lor hp)) land mask;
    vn := hp land d0;
    if !score <= cap then begin
      ends.(!k) <- j + 1;
      incr k;
      if !k = Array.length ends then begin
        deliver_ends peq p m ends !k f;
        k := 0;
        set_peq peq p 0 m
      end
    end
  done;
  deliver_ends peq p m ends !k f

(* A while loop, not a local [rec]: a recursive closure over the slices
   would be heap-allocated on every cap-0 verification. *)
let slices_equal a a_off b b_off len =
  let i = ref 0 in
  while
    !i < len
    && String.unsafe_get a (a_off + !i) = String.unsafe_get b (b_off + !i)
  do
    incr i
  done;
  !i >= len

let distance_upto_slice ~cap ~banded r ~s ~off ~len =
  if cap < 0 then None
  else begin
    let r_len = String.length r in
    if abs (r_len - len) > cap then None
    else if r_len = 0 then Some len
    else if len = 0 then Some r_len
    else begin
      (* Pattern = the shorter side. *)
      let p, p_off, m, t, t_off, n =
        if r_len <= len then (r, 0, r_len, s, off, len)
        else (s, off, len, r, 0, r_len)
      in
      if cap = 0 then
        if slices_equal p p_off t t_off m then Some 0 else None
      else begin
        let sc = Domain.DLS.get scratch_key in
        if (not banded) && m <= myers_max_len then
          myers_core ~cap sc p p_off m t t_off n
        else banded_core ~cap sc p p_off m t t_off n
      end
    end
  end

let distance_upto ~cap r s =
  distance_upto_slice ~cap ~banded:false r ~s ~off:0 ~len:(String.length s)

let distance_upto_banded ~cap r s =
  distance_upto_slice ~cap ~banded:true r ~s ~off:0 ~len:(String.length s)

let distance_upto_myers ~cap r s =
  distance_upto_slice ~cap ~banded:false r ~s ~off:0 ~len:(String.length s)

let within r s tau = distance_upto ~cap:tau r s <> None

let similarity r s =
  let m = max (String.length r) (String.length s) in
  if m = 0 then 1.0
  else 1.0 -. (float_of_int (distance r s) /. float_of_int m)
