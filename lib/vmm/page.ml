type owner =
  | Free
  | Anon
  | Page_cache of { ino : int; index : int }
  | Kernel

type t = {
  mutable owner : owner;
  mutable refcount : int;
  mutable locked_ptes : int;
  mutable locked : bool;
}

let make_free () = { owner = Free; refcount = 0; locked_ptes = 0; locked = false }

let is_free t = t.owner = Free

let pp_owner fmt o =
  match o with
  | Free -> Format.pp_print_string fmt "free"
  | Anon -> Format.pp_print_string fmt "anon"
  | Page_cache { ino; index } -> Format.fprintf fmt "pagecache(ino=%d,idx=%d)" ino index
  | Kernel -> Format.pp_print_string fmt "kernel"
