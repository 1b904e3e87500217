let counter = Atomic.make 0

let write ?(fault = fun () -> false) path data =
  (* Unique among live writers: the pid tells processes apart, the
     counter domains and calls. *)
  let tmp =
    Printf.sprintf "%s.%d-%d.tmp" path (Unix.getpid ())
      (Atomic.fetch_and_add counter 1)
  in
  let oc = open_out_bin tmp in
  try
    if fault () then begin
      output_substring oc data 0 (String.length data / 2);
      raise (Sys_error (path ^ ": injected short write"))
    end;
    output_string oc data;
    close_out oc;
    Sys.rename tmp path
  with Sys_error _ as e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let leftovers path =
  let dir = Filename.dirname path and prefix = Filename.basename path ^ "." in
  try
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n ->
           String.starts_with ~prefix n && Filename.check_suffix n ".tmp")
    |> List.map (Filename.concat dir)
  with Sys_error _ -> []
