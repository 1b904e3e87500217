(* The store lives in [E9_core] (it also backs the CLI's plan cache);
   this alias keeps the [E9_rpc.Cache] name. *)
include E9_core.Cache
