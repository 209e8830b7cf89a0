type t = {
  fd : Unix.file_descr;
  lock : Mutex.t;
  mutable closed : bool;
}

let openfile path =
  {
    fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644;
    lock = Mutex.create ();
    closed = false;
  }

let rec retry f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry f

(* lockf covers [offset, EOF+): seek to 0 so lock and unlock both span the
   whole file. O_APPEND still puts every write at the end. *)
let whole_file t cmd =
  ignore (Unix.lseek t.fd 0 Unix.SEEK_SET);
  retry (fun () -> Unix.lockf t.fd cmd 0)

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let append ?(fsync = false) t record =
  let n = String.length record in
  with_lock t (fun () ->
      whole_file t Unix.F_LOCK;
      Fun.protect
        ~finally:(fun () -> whole_file t Unix.F_ULOCK)
        (fun () ->
          let write off = Unix.write_substring t.fd record off (n - off) in
          let rec go off = if off < n then go (off + retry (fun () -> write off)) in
          go 0;
          if fsync then Unix.fsync t.fd))

let truncate t =
  with_lock t (fun () ->
      Unix.ftruncate t.fd 0;
      Unix.fsync t.fd)

let close t =
  with_lock t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        try Unix.close t.fd with Unix.Unix_error _ -> ()
      end)
