(* Atomic file persistence: write the whole artifact to a sibling
   temporary file, then [Sys.rename] over the target — POSIX rename is
   atomic within a filesystem, so readers observe either the old
   complete file or the new complete file, never a torn write. A
   crashed or faulted writer leaves the target untouched (the temp file
   is removed on the failure path; a hard kill can at worst leak a
   [.tmp.pid] sibling, which a later successful write of the same path
   by the same pid overwrites). *)

let tmp_of path = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ())

let with_file path f =
  Faultinj.hit "io/write";
  let tmp = tmp_of path in
  let oc = open_out tmp in
  match f oc with
  | v ->
    close_out oc;
    Sys.rename tmp path;
    v
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
