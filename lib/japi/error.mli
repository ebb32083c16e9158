(** Located errors for the [.japi] front end. *)

type t = {
  file : string;
  line : int;
  col : int;
  msg : string;
}

exception E of t

val fail : file:string -> line:int -> col:int -> string -> 'a
(** Raise {!E}. *)

val unexpected_char : file:string -> line:int -> col:int -> string -> int -> 'a
(** [unexpected_char ~file ~line ~col src i] raises {!E} for an unexpected
    character at byte [i] of [src]. The message shows printable ASCII as
    itself, a multi-byte UTF-8 character whole, and any other byte (a
    control character, or one that does not start valid UTF-8) as [\xNN],
    so it is valid UTF-8 whatever [src] holds. *)

val to_string : t -> string
(** ["file:line:col: msg"]. *)
