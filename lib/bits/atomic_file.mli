(** Atomic whole-file writes: the one temp-then-rename writer behind ELF
    output, ndjson traces, the bench record and the daemon's emits.

    The payload goes to a temp file beside the destination, renamed over
    it only once fully written, so a reader sees the old file or the
    complete new one. Temp names are unique per process and per call:
    concurrent writers of one destination never share a temp file, and
    the last rename wins. *)

(** [write ?fault path data] writes [data] to [path] atomically, with
    mode [0o666] minus the umask. On failure the temp file is removed,
    nothing lands at [path], and [Sys_error] is raised. When [fault]
    (fault injection) answers [true], half of [data] is written and the
    write then fails as a short write would. *)
val write : ?fault:(unit -> bool) -> string -> string -> unit

(** [leftovers path] — temp files {!write} left for [path] (none unless
    a writer died mid-write). *)
val leftovers : string -> string list
