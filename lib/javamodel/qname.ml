(* [dotted] is a function of [pkg] and [name], computed once here, so it
   only breaks ties that [pkg] and [name] already broke: structural
   comparison and equality mean what they meant without it. *)
type t = {
  pkg : string list;
  name : string;
  dotted : string;
}

let equal a b = a == b || (String.equal a.name b.name && List.equal String.equal a.pkg b.pkg)

let compare a b =
  match compare a.name b.name with 0 -> compare a.pkg b.pkg | c -> c

let make ~pkg name =
  let dotted = match pkg with [] -> name | _ -> String.concat "." pkg ^ "." ^ name in
  { pkg; name; dotted }

let of_string s =
  match List.rev (String.split_on_char '.' s) with
  | [] | [ "" ] -> invalid_arg "Qname.of_string: empty name"
  | name :: rev_pkg -> { pkg = List.rev rev_pkg; name; dotted = s }

let to_string t = t.dotted

let simple t = t.name

let package t = t.pkg

let package_string t = String.concat "." t.pkg

let same_package a b = List.equal String.equal a.pkg b.pkg

let object_qname = make ~pkg:[ "java"; "lang" ] "Object"

let string_qname = make ~pkg:[ "java"; "lang" ] "String"

let pp fmt t = Format.pp_print_string fmt t.dotted

let show = to_string

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
